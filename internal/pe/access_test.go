package pe

import (
	"strings"
	"testing"

	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// TestDeclaredAccessEnforced: a stored procedure's declared access set
// is enforced statement by statement. A declared SP commits writes to
// its declared tables; a declared border SP ingests into its input
// stream without listing it (the engine adds it); and a body that
// touches an undeclared table aborts with the executor's coverage
// error, rolling back the writes it already made.
func TestDeclaredAccessEnforced(t *testing.T) {
	e := newEngine(t, Options{})
	for _, ddl := range []string{
		"CREATE STREAM s_in (v BIGINT)",
		"CREATE TABLE totals (v BIGINT)",
		"CREATE TABLE audit (v BIGINT)",
	} {
		if err := e.ExecDDL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	writesTotals := &ProcAccess{Writes: []string{"totals"}}
	procs := []*StoredProc{
		{Name: "Put", Access: writesTotals, Func: func(ctx *ProcCtx) error {
			_, err := ctx.Query("INSERT INTO totals VALUES (?)", ctx.Params()[0])
			return err
		}},
		{Name: "Border", Access: writesTotals, Func: func(ctx *ProcCtx) error {
			_, err := ctx.Query("INSERT INTO totals SELECT v FROM s_in")
			return err
		}},
		{Name: "Stray", Access: writesTotals, Func: func(ctx *ProcCtx) error {
			if _, err := ctx.Query("INSERT INTO totals VALUES (?)", ctx.Params()[0]); err != nil {
				return err
			}
			_, err := ctx.Query("INSERT INTO audit VALUES (?)", ctx.Params()[0])
			return err
		}},
	}
	for _, sp := range procs {
		if err := e.RegisterProc(sp); err != nil {
			t.Fatal(err)
		}
	}
	w, err := workflow.New("wf", []workflow.Node{{SP: "Border", Input: "s_in"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	count := func(table string) int64 {
		t.Helper()
		res, err := e.AdHoc(0, "SELECT COUNT(*) FROM "+table)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}

	if _, err := e.Call("Put", types.Row{types.NewInt(1)}); err != nil {
		t.Fatalf("declared write rejected: %v", err)
	}
	if err := e.IngestSync("s_in", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(2)}, {types.NewInt(3)}}}); err != nil {
		t.Fatalf("border SP could not ingest into its undeclared input stream: %v", err)
	}
	if got := count("totals"); got != 3 {
		t.Fatalf("totals = %d rows after Put and Border, want 3", got)
	}

	_, err = e.Call("Stray", types.Row{types.NewInt(4)})
	if err == nil || !strings.Contains(err.Error(), "outside the procedure's declared set") {
		t.Fatalf("undeclared write: err = %v, want the coverage error", err)
	}
	if got := count("totals"); got != 3 {
		t.Errorf("aborted Stray left its totals insert behind: %d rows, want 3", got)
	}
	if got := count("audit"); got != 0 {
		t.Errorf("undeclared table written: audit = %d rows", got)
	}
	if got := e.Stats().Aborted; got != 1 {
		t.Errorf("aborted = %d, want 1", got)
	}
}
