package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sstore/internal/pe"
	"sstore/internal/server"
	"sstore/internal/stream"
	"sstore/internal/types"
)

// TestPipelineCopyMatchesBuiltin feeds one seed's requests through the
// traced run's copy of the pipeline app and through server.PipelineApp,
// and requires identical Report results and averages rows.
func TestPipelineCopyMatchesBuiltin(t *testing.T) {
	w := workloads["pipeline-none"]
	run := func(setup func(*pe.Engine) error) []string {
		opts, err := w.engineOptions()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := pe.NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := setup(eng); err != nil {
			t.Fatal(err)
		}
		ingest := func(id int64, rows []types.Row) {
			if err := eng.IngestSync(w.stream, &stream.Batch{ID: id, Rows: rows}); err != nil {
				t.Fatal(err)
			}
		}
		var out []string
		for c, g := range newGens(w, 7) {
			for k := 0; k < 300; k++ {
				for _, o := range g.next() {
					switch o.kind {
					case opIngest:
						ingest(o.batch, o.rows)
					case opCall:
						if err := eng.Drain(); err != nil {
							t.Fatal(err)
						}
						res, err := eng.Call(o.sp, o.params)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, fmt.Sprint("Report", res.Columns, res.Rows))
					}
				}
			}
			// Clean's filter bounds, which the generator's in-range
			// values rarely reach.
			sensor := types.NewInt(pipelineSensor(c, 0))
			for i, v := range []int64{-1, 0, 1000, 1001} {
				ingest(301+int64(i), []types.Row{{sensor, types.NewInt(v)}})
			}
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		var rows []string
		for p := 0; p < conns; p++ {
			res, err := eng.Read(p, "SELECT sensor, n, total FROM averages")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				rows = append(rows, fmt.Sprint(p, r))
			}
		}
		sort.Strings(rows)
		return append(out, rows...)
	}
	builtin := run(server.PipelineApp().Setup)
	copied := run(func(eng *pe.Engine) error { return pipelineSetup(eng, identity) })
	if len(builtin) == 0 || !reflect.DeepEqual(builtin, copied) {
		t.Fatalf("copy diverges from server.PipelineApp:\nbuiltin %v\ncopy    %v", builtin, copied)
	}
}

// TestCountsRepeat runs the traced in-process open loop twice with the
// same seed and batch count and requires the per-layer counts to match
// exactly, then checks the split they must show: one fsync per TE under
// strong logging and none without it.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"pipeline-none", "pipeline-strong", "linearroad"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			var got [2]map[string]float64
			for i := range got {
				r, err := inprocOpen(w, 3, filepath.Join(t.TempDir(), "log"), phase{rate: 4000, slots: 250})
				if err != nil {
					t.Fatal(err)
				}
				if r.s.batches != 250*conns {
					t.Fatalf("run %d acked %d batches, want %d", i, r.s.batches, 250*conns)
				}
				got[i] = r.counts()
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("counts differ between identical runs:\n%v\n%v", got[0], got[1])
			}
			wantSyncs := 0.0
			if w.recovery == "strong" {
				wantSyncs = 1
			}
			if got[0]["wal.fsyncs_per_te"] != wantSyncs {
				t.Errorf("wal.fsyncs_per_te = %v, want %v", got[0]["wal.fsyncs_per_te"], wantSyncs)
			}
			for _, k := range []string{"pe.tes_per_batch", "wire.req_bytes_per_batch", "wire.resp_bytes_per_batch"} {
				if got[0][k] <= 0 {
					t.Errorf("%s = %v, want > 0", k, got[0][k])
				}
			}
		})
	}
}

// TestCalmWindows requires every window to count when no window saw
// steal, and tied windows to be kept together rather than cut by
// position.
func TestCalmWindows(t *testing.T) {
	for _, tc := range []struct {
		steal []int64
		want  []bool
	}{
		{[]int64{0, 0, 0, 0, 0, 0}, []bool{true, true, true, true, true, true}},
		{[]int64{0, 0, 0, 1, 0, 0}, []bool{true, true, true, false, true, true}},
		{[]int64{3, 1, 1, 1, 0, 9}, []bool{false, true, true, true, true, false}},
		{[]int64{5, 2, 8}, []bool{true, true, false}},
		{nil, []bool{}},
	} {
		if got := calmWindows(tc.steal); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("calmWindows(%v) = %v, want %v", tc.steal, got, tc.want)
		}
	}
}
