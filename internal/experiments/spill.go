package experiments

// The spill experiment is the archive tables' headline number:
// an append-only history table declared ARCHIVE keeps only a bounded
// buffer pool in memory and spills the rest to its page file, and the
// claim under test is that ingest throughput stays close to the
// in-memory heap even when the archived state has grown far past the
// memory budget. The workload appends fixed-size rows through a stored
// procedure into either a plain table (the in-memory baseline) or an
// archive table with a deliberately small ArchiveMemoryBudget, then
// reports how many times over budget the page file grew and the
// throughput ratio. Append-mostly is the design point: a full fill
// page is evicted once, written back once, and never revisited, so the
// disk cost amortizes over a whole page of rows.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sstore/internal/benchutil"
	"sstore/internal/pe"
	"sstore/internal/types"
)

// spillPayload is the per-row text payload; with row overhead it puts
// roughly 70 rows on an 8 KiB page.
const spillPayload = 96

// spillRowsPerCall batches appends per stored-procedure call so the
// measurement weighs the storage path, not per-call dispatch.
const spillRowsPerCall = 8

// Spill compares history-append throughput on an in-memory table vs an
// archive table whose state grows several times past its buffer-pool
// budget.
func Spill(opts Options) (*benchutil.Table, error) {
	table := benchutil.NewTable("config", "rows", "budget_kb", "pagefile_kb",
		"spill_x", "rows_per_sec", "vs_memory")
	calls := opts.n(500, 2500)
	budget := int64(opts.n(64<<10, 256<<10))
	memTput, _, err := spillProbe(opts, false, budget, calls)
	if err != nil {
		return nil, fmt.Errorf("spill memory: %w", err)
	}
	archTput, pageBytes, err := spillProbe(opts, true, budget, calls)
	if err != nil {
		return nil, fmt.Errorf("spill archive: %w", err)
	}
	rows := calls * spillRowsPerCall
	table.AddRow("memory", rows, budget>>10, 0, 0.0, memTput, 1.0)
	table.AddRow("archive", rows, budget>>10, pageBytes>>10,
		float64(pageBytes)/float64(budget), archTput, archTput/memTput)
	return table, nil
}

// spillProbe appends calls*spillRowsPerCall rows and returns rows/sec
// plus (for the archive config) the final page-file size in bytes,
// measured after Close so every dirty frame has been written back.
func spillProbe(opts Options, archive bool, budget int64, calls int) (
	tput float64, pageBytes int64, err error) {
	dir, err := os.MkdirTemp(opts.Dir, "spill-")
	if err != nil {
		return 0, 0, err
	}
	eng, err := pe.NewEngine(pe.Options{
		ArchiveDir:          dir,
		ArchiveMemoryBudget: budget,
	})
	if err != nil {
		return 0, 0, err
	}
	closed := false
	defer func() {
		if !closed {
			eng.Close()
		}
	}()
	ddl := "CREATE TABLE hist (id BIGINT PRIMARY KEY, ts BIGINT, payload VARCHAR)"
	if archive {
		ddl = "CREATE ARCHIVE TABLE hist (id BIGINT PRIMARY KEY, ts BIGINT, payload VARCHAR)"
	}
	if err := eng.ExecDDL(ddl); err != nil {
		return 0, 0, err
	}
	payload := types.NewText(strings.Repeat("x", spillPayload))
	err = eng.RegisterProc(&pe.StoredProc{Name: "SpillPut", Func: func(ctx *pe.ProcCtx) error {
		base := ctx.Params()[0].Int()
		for k := int64(0); k < spillRowsPerCall; k++ {
			id := base*spillRowsPerCall + k
			if _, err := ctx.Query("INSERT INTO hist VALUES (?, ?, ?)",
				types.NewInt(id), types.NewInt(id*3), payload); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		return 0, 0, err
	}
	callTput, err := benchutil.MeasureThroughput(calls, func(i int) error {
		_, err := eng.Call("SpillPut", types.Row{types.NewInt(int64(i))})
		return err
	}, nil)
	if err != nil {
		return 0, 0, err
	}
	res, err := eng.AdHoc(0, "SELECT COUNT(*) FROM hist")
	if err != nil {
		return 0, 0, err
	}
	if got, want := res.Rows[0][0].Int(), int64(calls*spillRowsPerCall); got != want {
		return 0, 0, fmt.Errorf("spill: %d rows landed, want %d", got, want)
	}
	closed = true
	if err := eng.Close(); err != nil {
		return 0, 0, err
	}
	if archive {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return 0, 0, err
		}
		for _, ent := range ents {
			if !strings.HasSuffix(ent.Name(), ".pages") {
				continue
			}
			info, err := os.Stat(filepath.Join(dir, ent.Name()))
			if err != nil {
				return 0, 0, err
			}
			pageBytes += info.Size()
		}
	}
	return callTput * spillRowsPerCall, pageBytes, nil
}
