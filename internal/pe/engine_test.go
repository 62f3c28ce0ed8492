package pe

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sstore/internal/recovery"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/workflow"
)

// schedLog records the execution schedule (SP name + batch) so tests
// can assert the §2.2 ordering constraints.
type schedLog struct {
	mu      sync.Mutex
	entries []schedEntry
}

type schedEntry struct {
	sp    string
	batch int64
}

func (l *schedLog) add(sp string, batch int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, schedEntry{sp: sp, batch: batch})
}

func (l *schedLog) list() []schedEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]schedEntry(nil), l.entries...)
}

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// deployChain builds an N-SP chain workflow: each SP copies its input
// batch to the next stream and counts into a sink table.
func deployChain(t *testing.T, e *Engine, n int, log *schedLog) {
	t.Helper()
	if err := e.ExecDDL("CREATE TABLE sink (sp VARCHAR, batch BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	var nodes []workflow.Node
	for i := 1; i <= n; i++ {
		if err := e.ExecDDL(fmt.Sprintf("CREATE STREAM s%d (v BIGINT)", i)); err != nil {
			t.Fatal(err)
		}
		sp := fmt.Sprintf("SP%d", i)
		in := fmt.Sprintf("s%d", i)
		out := fmt.Sprintf("s%d", i+1)
		node := workflow.Node{SP: sp, Input: in}
		if i < n {
			node.Outputs = []string{out}
		}
		nodes = append(nodes, node)
		last := i == n
		err := e.RegisterProc(&StoredProc{Name: sp, Func: func(ctx *ProcCtx) error {
			if log != nil {
				log.add(sp, ctx.BatchID())
			}
			if _, err := ctx.Query(
				"INSERT INTO sink SELECT ? , ?, v FROM "+in,
				types.NewText(sp), types.NewInt(ctx.BatchID()),
			); err != nil {
				return err
			}
			if !last {
				if _, err := ctx.Query("INSERT INTO " + out + " SELECT v + 1 FROM " + in); err != nil {
					return err
				}
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	w, err := workflow.New("chain", nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
}

func TestOLTPCall(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.ExecDDL("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	err := e.RegisterProc(&StoredProc{Name: "Put", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO t VALUES (?, ?)", ctx.Params()[0], ctx.Params()[1])
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = e.RegisterProc(&StoredProc{Name: "Get", Func: func(ctx *ProcCtx) error {
		res, err := ctx.Query("SELECT v FROM t WHERE id = ?", ctx.Params()[0])
		if err != nil {
			return err
		}
		ctx.SetResult(res)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("Put", types.Row{types.NewInt(1), types.NewInt(42)}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Call("Get", types.Row{types.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := e.Call("Missing", nil); err == nil {
		t.Error("unknown SP should fail")
	}
}

func TestWorkflowChainExecution(t *testing.T) {
	log := &schedLog{}
	e := newEngine(t, Options{})
	deployChain(t, e, 3, log)
	for b := int64(1); b <= 5; b++ {
		if err := e.Ingest("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b * 100)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// Every SP processed every batch exactly once.
	res, err := e.AdHoc(0, "SELECT sp, COUNT(*) FROM sink GROUP BY sp ORDER BY sp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].Int() != 5 {
			t.Errorf("%s ran %d times, want 5", r[0].Text(), r[1].Int())
		}
	}
	// Values flowed: SP3 saw v+2.
	res, _ = e.AdHoc(0, "SELECT v FROM sink WHERE sp = 'SP3' AND batch = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 202 {
		t.Errorf("SP3 batch 2 = %v", res.Rows)
	}
	// All streams drained by GC.
	for i := 1; i <= 3; i++ {
		res, _ = e.AdHoc(0, fmt.Sprintf("SELECT COUNT(*) FROM s%d", i))
		if res.Rows[0][0].Int() != 0 {
			t.Errorf("s%d not garbage collected", i)
		}
	}
	assertCorrectSchedule(t, log.list(), []string{"SP1", "SP2", "SP3"})
}

// assertCorrectSchedule checks the two §2.2 constraints over a recorded
// schedule: workflow order within each batch round, and stream order
// (ascending batches) per SP.
func assertCorrectSchedule(t *testing.T, entries []schedEntry, topo []string) {
	t.Helper()
	pos := make(map[string]int, len(topo))
	for i, sp := range topo {
		pos[sp] = i
	}
	lastBatch := make(map[string]int64)
	lastStep := make(map[int64]int)
	for _, en := range entries {
		if en.batch <= lastBatch[en.sp] {
			t.Fatalf("stream order violated: %s saw batch %d after %d", en.sp, en.batch, lastBatch[en.sp])
		}
		lastBatch[en.sp] = en.batch
		step, ok := pos[en.sp]
		if !ok {
			continue
		}
		if prev, seen := lastStep[en.batch]; seen && step != prev+1 {
			t.Fatalf("workflow order violated for batch %d: %s at step %d after step %d", en.batch, en.sp, step, prev)
		} else if !seen && step != 0 {
			t.Fatalf("batch %d started at %s (step %d), not the border SP", en.batch, en.sp, step)
		}
		lastStep[en.batch] = step
	}
}

func TestWorkflowNoInterleavingWithinRound(t *testing.T) {
	// Mix OLTP calls with streaming rounds; TEs of one round must stay
	// contiguous (the streaming scheduler's fast path, §3.2.4).
	log := &schedLog{}
	e := newEngine(t, Options{})
	deployChain(t, e, 3, log)
	if err := e.RegisterProc(&StoredProc{Name: "Noop", Func: func(ctx *ProcCtx) error {
		log.add("OLTP", 0)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := int64(1); b <= 50; b++ {
			if err := e.IngestSync("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b)}}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := e.Call("Noop", nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// Within the recorded schedule, once a border TE for batch b runs,
	// the next two workflow entries must be SP2, SP3 for the same b.
	entries := log.list()
	for i, en := range entries {
		if en.sp != "SP1" {
			continue
		}
		var rest []schedEntry
		for _, e2 := range entries[i+1:] {
			if e2.sp == "OLTP" && len(rest) < 2 {
				t.Fatalf("OLTP interleaved into round for batch %d", en.batch)
			}
			if e2.sp != "OLTP" {
				rest = append(rest, e2)
				if len(rest) == 2 {
					break
				}
			}
		}
		if len(rest) == 2 {
			if rest[0].sp != "SP2" || rest[0].batch != en.batch || rest[1].sp != "SP3" || rest[1].batch != en.batch {
				t.Fatalf("round for batch %d broken: %v", en.batch, rest)
			}
		}
	}
}

func TestAbortRollsBackAndStopsWorkflow(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.ExecDDL("CREATE STREAM s1 (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := e.ExecDDL("CREATE STREAM s2 (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := e.ExecDDL("CREATE TABLE sink (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	ran2 := false
	e.RegisterProc(&StoredProc{Name: "SP1", Func: func(ctx *ProcCtx) error {
		if _, err := ctx.Query("INSERT INTO s2 SELECT v FROM s1"); err != nil {
			return err
		}
		rows, _ := ctx.Query("SELECT v FROM s1")
		if len(rows.Rows) > 0 && rows.Rows[0][0].Int() < 0 {
			return ctx.Abort("negative value %d", rows.Rows[0][0].Int())
		}
		return nil
	}})
	e.RegisterProc(&StoredProc{Name: "SP2", Func: func(ctx *ProcCtx) error {
		ran2 = true
		_, err := ctx.Query("INSERT INTO sink SELECT v FROM s2")
		return err
	}})
	w, _ := workflow.New("wf", []workflow.Node{
		{SP: "SP1", Input: "s1", Outputs: []string{"s2"}},
		{SP: "SP2", Input: "s2"},
	})
	if err := e.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	// A bad batch aborts the border TE: nothing survives, downstream
	// never runs.
	err := e.IngestSync("s1", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(-5)}}})
	if err == nil || !strings.Contains(err.Error(), "abort") {
		t.Fatalf("expected abort, got %v", err)
	}
	e.Drain()
	if ran2 {
		t.Error("downstream SP ran after upstream abort")
	}
	for _, q := range []string{"SELECT COUNT(*) FROM s1", "SELECT COUNT(*) FROM s2", "SELECT COUNT(*) FROM sink"} {
		res, _ := e.AdHoc(0, q)
		if res.Rows[0][0].Int() != 0 {
			t.Errorf("%s = %v, want 0", q, res.Rows[0][0])
		}
	}
	// A good batch after the abort flows through.
	if err := e.IngestSync("s1", &stream.Batch{ID: 2, Rows: []types.Row{{types.NewInt(5)}}}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	res, _ := e.AdHoc(0, "SELECT COUNT(*) FROM sink")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("sink = %v", res.Rows[0][0])
	}
}

func TestIngestDedup(t *testing.T) {
	e := newEngine(t, Options{})
	deployChain(t, e, 1, nil)
	if err := e.Ingest("s1", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(1)}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("s1", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(1)}}}); err == nil {
		t.Error("duplicate batch should be rejected")
	}
	if err := e.Ingest("nosuch", &stream.Batch{ID: 1}); err == nil {
		t.Error("unknown stream should be rejected")
	}
}

func TestNestedTransactionAtomicity(t *testing.T) {
	e := newEngine(t, Options{})
	e.ExecDDL("CREATE TABLE t (id BIGINT, v BIGINT)")
	e.RegisterProc(&StoredProc{Name: "Add", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO t VALUES (?, ?)", ctx.Params()[0], ctx.Params()[1])
		return err
	}})
	e.RegisterProc(&StoredProc{Name: "FailIfOdd", Func: func(ctx *ProcCtx) error {
		if ctx.Params()[0].Int()%2 == 1 {
			return ctx.Abort("odd")
		}
		return nil
	}})
	// Failing nested txn: first child's insert must roll back too.
	_, err := e.CallNested([]NestedCall{
		{SP: "Add", Params: types.Row{types.NewInt(1), types.NewInt(10)}},
		{SP: "FailIfOdd", Params: types.Row{types.NewInt(1)}},
	})
	if err == nil {
		t.Fatal("nested txn should abort")
	}
	res, _ := e.AdHoc(0, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("rows after nested abort = %v", res.Rows[0][0])
	}
	// Succeeding nested txn commits both children.
	_, err = e.CallNested([]NestedCall{
		{SP: "Add", Params: types.Row{types.NewInt(2), types.NewInt(20)}},
		{SP: "FailIfOdd", Params: types.Row{types.NewInt(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ = e.AdHoc(0, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("rows after nested commit = %v", res.Rows[0][0])
	}
}

func TestWindowOwnershipThroughEngine(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.ExecDDLOwned("Owner", "CREATE WINDOW w (v BIGINT) SIZE 2 SLIDE 1"); err != nil {
		t.Fatal(err)
	}
	e.RegisterProc(&StoredProc{Name: "Owner", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO w VALUES (1)")
		return err
	}})
	e.RegisterProc(&StoredProc{Name: "Intruder", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("SELECT COUNT(*) FROM w")
		return err
	}})
	if _, err := e.Call("Owner", nil); err != nil {
		t.Errorf("owner blocked: %v", err)
	}
	if _, err := e.Call("Intruder", nil); err == nil {
		t.Error("foreign SP should be blocked from the window")
	}
}

func TestMultiPartitionRouting(t *testing.T) {
	e := newEngine(t, Options{
		Partitions: 2,
		PartitionBy: func(_ string, batch []types.Row) int {
			return int(batch[0][0].Int()) % 2
		},
	})
	deployChain(t, e, 2, nil)
	for b := int64(1); b <= 10; b++ {
		if err := e.Ingest("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	n0, _ := e.AdHoc(0, "SELECT COUNT(*) FROM sink")
	n1, _ := e.AdHoc(1, "SELECT COUNT(*) FROM sink")
	// 10 batches × 2 SPs = 20 sink rows split across partitions.
	if n0.Rows[0][0].Int()+n1.Rows[0][0].Int() != 20 {
		t.Errorf("sink rows = %v + %v, want 20", n0.Rows[0][0], n1.Rows[0][0])
	}
	if n0.Rows[0][0].Int() == 0 || n1.Rows[0][0].Int() == 0 {
		t.Errorf("both partitions should have work: %v / %v", n0.Rows[0][0], n1.Rows[0][0])
	}
}

func TestEngineStats(t *testing.T) {
	e := newEngine(t, Options{ClientRTT: 1, EEDispatch: 1})
	e.ExecDDL("CREATE TABLE t (v BIGINT)")
	e.RegisterProc(&StoredProc{Name: "P", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO t VALUES (1)")
		return err
	}})
	for i := 0; i < 3; i++ {
		if _, err := e.Call("P", nil); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Executed != 3 {
		t.Errorf("executed = %d", s.Executed)
	}
	if s.ClientTrips != 3 {
		t.Errorf("trips = %d", s.ClientTrips)
	}
	if s.EECrossings != 3 {
		t.Errorf("crossings = %d", s.EECrossings)
	}
}

func TestRecoveryStrongRestoresExactState(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Recovery:    recovery.ModeStrong,
		LogPath:     dir + "/cmd.log",
		LogPolicy:   wal.SyncEachCommit,
		SnapshotDir: dir,
	}
	build := func() *Engine {
		e := newEngine(t, opts)
		deployChain(t, e, 3, nil)
		return e
	}
	e1 := build()
	for b := int64(1); b <= 4; b++ {
		if err := e1.IngestSync("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b * 10)}}}); err != nil {
			t.Fatal(err)
		}
	}
	e1.Drain()
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for b := int64(5); b <= 8; b++ {
		if err := e1.IngestSync("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b * 10)}}}); err != nil {
			t.Fatal(err)
		}
	}
	e1.Drain()
	want, _ := e1.AdHoc(0, "SELECT sp, batch, v FROM sink ORDER BY batch, sp")
	e1.Close() // "crash": log is durable, memory is lost

	e2 := build()
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := e2.AdHoc(0, "SELECT sp, batch, v FROM sink ORDER BY batch, sp")
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
	// The engine keeps working and the exactly-once ledger is ahead:
	// batch 8 is a duplicate, batch 9 is new.
	if err := e2.Ingest("s1", &stream.Batch{ID: 8, Rows: []types.Row{{types.NewInt(0)}}}); err == nil {
		t.Error("replayed batch should be deduplicated after recovery")
	}
	if err := e2.IngestSync("s1", &stream.Batch{ID: 9, Rows: []types.Row{{types.NewInt(90)}}}); err != nil {
		t.Fatal(err)
	}
	e2.Drain()
	res, _ := e2.AdHoc(0, "SELECT COUNT(*) FROM sink")
	if res.Rows[0][0].Int() != int64(len(want.Rows))+3 {
		t.Errorf("post-recovery sink = %v", res.Rows[0][0])
	}
}

func TestRecoveryWeakProducesLegalState(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Recovery:    recovery.ModeWeak,
		LogPath:     dir + "/cmd.log",
		LogPolicy:   wal.SyncEachCommit,
		SnapshotDir: dir,
	}
	build := func() *Engine {
		e := newEngine(t, opts)
		deployChain(t, e, 3, nil)
		return e
	}
	e1 := build()
	for b := int64(1); b <= 6; b++ {
		if err := e1.IngestSync("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b * 10)}}}); err != nil {
			t.Fatal(err)
		}
	}
	e1.Drain()
	want, _ := e1.AdHoc(0, "SELECT sp, batch, v FROM sink ORDER BY batch, sp")
	// Weak mode logs only border TEs.
	appends, _ := e1.Stats().LogAppends, 0
	if appends != 6 {
		t.Errorf("weak mode logged %d records, want 6 border TEs", appends)
	}
	e1.Close()

	e2 := build()
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := e2.AdHoc(0, "SELECT sp, batch, v FROM sink ORDER BY batch, sp")
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
}

func TestRecoveryWeakReFiresSnapshotStreams(t *testing.T) {
	// Arrange a snapshot holding a non-empty interior stream: the
	// border TE committed but its downstream had not when the
	// checkpoint was cut. Weak recovery must re-derive the interior
	// work by firing PE triggers before log replay (§3.2.5).
	dir := t.TempDir()
	opts := Options{
		Recovery:    recovery.ModeWeak,
		LogPath:     dir + "/cmd.log",
		LogPolicy:   wal.SyncEachCommit,
		SnapshotDir: dir,
	}
	build := func() *Engine {
		e := newEngine(t, opts)
		deployChain(t, e, 2, nil)
		return e
	}
	e1 := build()
	// Suppress PE triggers so the interior TE never runs, leaving the
	// batch parked in s2 — the snapshot then captures exactly the
	// "interior uncommitted" state.
	e1.SetPETriggersEnabled(false)
	if err := e1.IngestSync("s1", &stream.Batch{ID: 1, Rows: []types.Row{{types.NewInt(10)}}}); err != nil {
		t.Fatal(err)
	}
	e1.Drain()
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := build()
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	// SP2 must have processed batch 1 from the recovered s2.
	res, _ := e2.AdHoc(0, "SELECT COUNT(*) FROM sink WHERE sp = 'SP2'")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("interior TE not re-derived: %v", res.Rows[0][0])
	}
	res, _ = e2.AdHoc(0, "SELECT COUNT(*) FROM s2")
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("s2 not drained: %v", res.Rows[0][0])
	}
}

func TestRecoveryModesLogVolume(t *testing.T) {
	// Weak logging writes one record per workflow; strong writes one
	// per TE — the Figure 9a mechanism.
	for _, tc := range []struct {
		mode recovery.Mode
		want uint64
	}{
		{recovery.ModeStrong, 30}, // 10 batches × 3 TEs
		{recovery.ModeWeak, 10},   // 10 border TEs
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			e := newEngine(t, Options{
				Recovery:    tc.mode,
				LogPath:     dir + "/cmd.log",
				LogPolicy:   wal.SyncEachCommit,
				SnapshotDir: dir,
			})
			deployChain(t, e, 3, nil)
			for b := int64(1); b <= 10; b++ {
				if err := e.IngestSync("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b)}}}); err != nil {
					t.Fatal(err)
				}
			}
			e.Drain()
			if got := e.Stats().LogAppends; got != tc.want {
				t.Errorf("log appends = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestRecoveryStrongAcrossLogSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Recovery:        recovery.ModeStrong,
		LogPath:         dir,
		LogPolicy:       wal.SyncEachCommit,
		LogSegmentBytes: 256, // rotate every few records
		SnapshotDir:     dir,
	}
	build := func() *Engine {
		e := newEngine(t, opts)
		deployChain(t, e, 3, nil)
		return e
	}
	e1 := build()
	for b := int64(1); b <= 12; b++ {
		if err := e1.IngestSync("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b * 10)}}}); err != nil {
			t.Fatal(err)
		}
	}
	e1.Drain()
	want, _ := e1.AdHoc(0, "SELECT sp, batch, v FROM sink ORDER BY batch, sp")
	e1.Close()

	// The tiny threshold must actually have rotated the shard logs.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rotated := 0
	for _, ent := range ents {
		// shard segments are cmd-p<N>.log.s<k>
		if i := strings.LastIndex(ent.Name(), ".s"); i >= 0 {
			if _, err := strconv.Atoi(ent.Name()[i+2:]); err == nil {
				rotated++
			}
		}
	}
	if rotated == 0 {
		t.Fatalf("no rotated segments in %v", dir)
	}

	e2 := build()
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := e2.AdHoc(0, "SELECT sp, batch, v FROM sink ORDER BY batch, sp")
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
	// Checkpointing truncates the replayed log by dropping sealed
	// segments; the engine must keep working after.
	if err := e2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e2.IngestSync("s1", &stream.Batch{ID: 13, Rows: []types.Row{{types.NewInt(130)}}}); err != nil {
		t.Fatal(err)
	}
	e2.Drain()
	res, _ := e2.AdHoc(0, "SELECT COUNT(*) FROM sink")
	if res.Rows[0][0].Int() != int64(len(want.Rows))+3 {
		t.Errorf("post-checkpoint sink = %v", res.Rows[0][0])
	}
	e2.Close()
}

// TestStatsDuringTraffic reads Stats from another goroutine while
// batches commit; under -race an unsynchronized counter fails it.
func TestStatsDuringTraffic(t *testing.T) {
	e := newEngine(t, Options{})
	deployChain(t, e, 2, nil)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				e.Stats()
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	const batches = 100
	for b := int64(1); b <= batches; b++ {
		if err := e.Ingest("s1", &stream.Batch{ID: b, Rows: []types.Row{{types.NewInt(b)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Executed; got != 2*batches {
		t.Errorf("executed = %d, want %d", got, 2*batches)
	}
}

// TestSPExecutionsDuringTraffic: SPExecutions reads each partition's
// per-SP counts on that partition's goroutine, so polling it while
// calls commit is race-free (go test -race) and exact once they have
// returned.
func TestSPExecutionsDuringTraffic(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.ExecDDL("CREATE TABLE t (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProc(&StoredProc{Name: "P", Func: func(ctx *ProcCtx) error {
		_, err := ctx.Query("INSERT INTO t VALUES (?)", ctx.Params()[0])
		return err
	}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				e.SPExecutions("P")
			}
		}
	}()
	const calls = 2000
	for i := 0; i < calls; i++ {
		if _, err := e.Call("P", types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if got := e.SPExecutions("P"); got != calls {
		t.Errorf("SPExecutions = %d, want %d", got, calls)
	}
}
