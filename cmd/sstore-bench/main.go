// Command sstore-bench regenerates the paper's evaluation (§4): one
// table per figure, printed as aligned rows. Absolute numbers depend on
// the host; EXPERIMENTS.md records a reference run and compares shapes
// against the paper.
//
// Usage:
//
//	sstore-bench -exp fig5|fig6|fig7|fig8|fig9a|fig9b|fig10|fig11|ablation|scale|net|window|read|alloc|cluster|spill|all [-quick] [-json]
//	sstore-bench -client host:port [-conns N] [-batches N] [-window N] [-sensor-base N]
//
// With -json, each experiment additionally writes BENCH_<exp>.json in
// the current directory: the result table's columns and raw row
// values plus the wall time, so the performance trajectory is
// machine-readable across runs.
//
// With -client, sstore-bench is a load driver for a running
// sstore-server (-app pipeline): it opens -conns connections, ingests
// -batches atomic batches per connection (one sensor per connection,
// up to -window in flight), waits for every border commit, then
// verifies exactly-once results through Report and exits non-zero on
// any mismatch. Overload rejections from a -max-queue server are
// retried after the server's hint when -window is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sstore/internal/benchutil"
	"sstore/internal/experiments"
)

var figures = []struct {
	name  string
	title string
	fn    func(experiments.Options) (*benchutil.Table, error)
}{
	{"fig5", "Figure 5: Execution Engine Triggers (transactions/sec)", experiments.Fig5},
	{"fig6", "Figure 6: Partition Engine Triggers (workflows/sec)", experiments.Fig6},
	{"fig7", "Figure 7: Native Windows (transactions/sec)", experiments.Fig7},
	{"fig8", "Figure 8: Leaderboard Maintenance, S-Store vs H-Store (workflows/sec)", experiments.Fig8},
	{"fig9a", "Figure 9a: Logging Overhead, Strong vs Weak (workflows/sec, no group commit)", experiments.Fig9a},
	{"fig9b", "Figure 9b: Recovery Time, Strong vs Weak (milliseconds)", experiments.Fig9b},
	{"fig10", "Figure 10: Voter w/ Leaderboard on Modern SDMSs (votes/sec)", experiments.Fig10},
	{"fig11", "Figure 11: Multi-core Scalability, Linear Road subset (max x-ways)", experiments.Fig11},
	{"ablation", "Ablations: index-vs-scan, batch size, trigger mechanism", experiments.Ablations},
	{"scale", "Partition scaling: workflow throughput with interior batches routed across partitions", experiments.Scale},
	{"net", "Client/server throughput vs connections over a real loopback socket", experiments.NetBench},
	{"window", "Incremental windows: insert and trigger-TE throughput vs window size (slide 1)", experiments.Window},
	{"read", "Snapshot read path: concurrent readers vs sustained ingest (reads off the partition loop)", experiments.Read},
	{"alloc", "Zero-allocation hot path: allocs/op on codec, framing, and WAL append; Mallocs/batch end to end", experiments.Alloc},
	{"cluster", "Cluster scale-out: Linear Road city scale across 2-4 server processes vs one 4-partition process", experiments.Cluster},
	{"spill", "Archive tables: history appends past the buffer-pool budget vs the in-memory heap (rows/sec)", experiments.Spill},
}

// benchReport is the machine-readable result of one experiment.
type benchReport struct {
	Experiment     string   `json:"experiment"`
	Title          string   `json:"title"`
	Quick          bool     `json:"quick"`
	ElapsedSeconds float64  `json:"elapsed_seconds"`
	Columns        []string `json:"columns"`
	Rows           [][]any  `json:"rows"`
}

func writeReport(name, title string, quick bool, table *benchutil.Table, elapsed time.Duration) error {
	rep := benchReport{
		Experiment:     name,
		Title:          title,
		Quick:          quick,
		ElapsedSeconds: elapsed.Seconds(),
		Columns:        table.Columns(),
		Rows:           table.Rows(),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%s.json", name), append(data, '\n'), 0o644)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig5..fig11, ablation, scale, net, window, read, alloc, cluster, spill, or all")
	quick := flag.Bool("quick", false, "shrink sweeps and windows for a fast pass")
	jsonOut := flag.Bool("json", false, "also write BENCH_<exp>.json per experiment")
	clientAddr := flag.String("client", "", "drive a running sstore-server at this address instead of running experiments")
	conns := flag.Int("conns", 4, "client mode: number of connections (one sensor each)")
	batches := flag.Int("batches", 500, "client mode: batches per connection")
	window := flag.Int("window", 32, "client mode: max in-flight batches per connection (1 = sync with overload retry)")
	sensorBase := flag.Int("sensor-base", 0, "client mode: first sensor ID (offset reruns to fresh sensors)")
	flag.Parse()

	if *clientAddr != "" {
		if err := runClientBench(*clientAddr, *conns, *batches, *window, *sensorBase); err != nil {
			fmt.Fprintln(os.Stderr, "sstore-bench:", err)
			os.Exit(1)
		}
		return
	}

	dir, err := os.MkdirTemp("", "sstore-bench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sstore-bench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	opts := experiments.Options{Quick: *quick, Dir: dir}

	ran := 0
	for _, f := range figures {
		if *exp != "all" && *exp != f.name {
			continue
		}
		ran++
		fmt.Printf("=== %s ===\n", f.title)
		start := time.Now()
		table, err := f.fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sstore-bench: %s: %v\n", f.name, err)
			os.Exit(1)
		}
		table.Print(os.Stdout)
		elapsed := time.Since(start)
		fmt.Printf("(%s in %.1fs)\n\n", f.name, elapsed.Seconds())
		if *jsonOut {
			if err := writeReport(f.name, f.title, *quick, table, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "sstore-bench: %s: write json: %v\n", f.name, err)
				os.Exit(1)
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sstore-bench: unknown experiment %q (want fig5..fig11, ablation, scale, net, window, read, alloc, cluster, spill, or all)\n", *exp)
		os.Exit(2)
	}
}
