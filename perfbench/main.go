// Command perfbench is the repository's end-to-end benchmark. A
// single-process load generator drives a separate sstore-server
// process over loopback TCP, in a closed-loop phase (bounded in-flight
// window per connection) and then an open-loop phase (fixed offered
// rate, latency timed from each request's due time). Every run starts
// fresh server processes on a fresh on-disk log directory and checks
// the app's end state against the batches it acked.
//
// With -trace 1 it also runs the same app in process on pe.NewEngine
// with every stored procedure wrapped, and reports the per-layer split
// (client, wire, server, pe, ee, storage, wal, recovery, runtime).
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Run it through run.sh, which builds both binaries first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sstore/internal/wal"
)

// config is one invocation's settings.
type config struct {
	w         *workload
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	work      string
}

// setupReps is how many server start-ups one run times; setup_s is
// their median. A start-up takes a few ms, so many are cheap and keep
// the median steady.
const setupReps = 31

// warmup is the nominal length of the unmeasured closed-loop lead-in
// of every run, long enough for plan caches and the heap to reach their
// steady size.
const warmup = time.Second

// closedWindow bounds each connection's in-flight requests in the
// closed-loop phase.
const closedWindow = 128

// runTimeout bounds one invocation; the watchdog kills every child and
// exits non-zero past it.
const runTimeout = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: pipeline-none, pipeline-strong or linearroad")
	seed := flag.Int64("seed", 1, "generator seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run, split between the closed- and open-loop phases")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	serverBin := flag.String("server", ".bench_build/bin/sstore-server", "sstore-server binary")
	work := flag.String("work", ".bench_build/work", "scratch directory for logs and span dumps (on disk)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark spec naming every metric and unit")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	time.AfterFunc(runTimeout, func() {
		killAll()
		fatal(fmt.Errorf("run exceeded %v", runTimeout))
	})
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, serverBin: *serverBin, work: *work}
	res, err := run(cfg)
	killAll()
	if err != nil {
		fatal(err)
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	out, err := res.report(want)
	if err != nil {
		fatal(err)
	}
	fmt.Println(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// children tracks live server processes for the watchdog.
var (
	childMu  sync.Mutex
	children = map[*serverProc]bool{}
)

func track(s *serverProc) {
	childMu.Lock()
	children[s] = true
	childMu.Unlock()
}

func stop(s *serverProc) {
	childMu.Lock()
	delete(children, s)
	childMu.Unlock()
	s.kill()
}

func killAll() {
	childMu.Lock()
	defer childMu.Unlock()
	for s := range children {
		s.kill()
		delete(children, s)
	}
}

// result is one run's output.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report renders the result line, requiring the run to have produced
// exactly the spec's metrics.
func (r *result) report(want []metricSpec) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]mv, len(want))
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("run produced no %s", m.Name)
		}
		out[m.Name] = mv{Value: v, Unit: m.Unit}
	}
	if len(out) != len(r.metrics) {
		var extra []string
		for n := range r.metrics {
			if _, ok := out[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return "", fmt.Errorf("metrics missing from the spec: %v", extra)
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{true, r.attempted, r.failed, out})
	return string(b), err
}

func run(cfg config) (*result, error) {
	dir := filepath.Join(cfg.work, cfg.w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tcp, err := runTCP(cfg, dir)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: tcp.attempted, failed: tcp.failed, metrics: map[string]float64{}}
	if !cfg.trace {
		for k, v := range tcp.endToEnd {
			res.metrics[k] = v
		}
		return res, nil
	}
	for k, v := range tcp.layers {
		res.metrics[k] = v
	}
	layers, err := measureLayers(cfg, dir, tcp.ackSendP50us)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		res.metrics[k] = v
	}
	return res, nil
}

// tcpRun is the outcome of the loopback TCP run.
type tcpRun struct {
	attempted, failed int64
	endToEnd          map[string]float64
	layers            map[string]float64 // client-side per-layer metrics
	ackSendP50us      float64            // open-loop ack p50 timed from submission
}

// runTCP times setupReps server start-ups, then drives the last server
// through the closed-loop phase and (after a SIGKILL restart on the
// same log, for logged workloads) the open-loop phase.
func runTCP(cfg config, dir string) (*tcpRun, error) {
	w := cfg.w
	closedDur, openDur := phaseDurs(cfg.seconds)
	var setups []float64
	var srv *serverProc
	logDir := filepath.Join(dir, "log")
	for i := 0; i < setupReps; i++ {
		args := []string{"-app", w.app, "-partitions", fmt.Sprint(conns), "-recovery", w.recovery}
		if w.recovery != "none" {
			if err := os.RemoveAll(logDir); err != nil {
				return nil, err
			}
			if err := os.MkdirAll(logDir, 0o755); err != nil {
				return nil, err
			}
			args = append(args, "-log", logDir)
		}
		s, err := startServer(cfg.serverBin, args...)
		if err != nil {
			return nil, err
		}
		track(s)
		setups = append(setups, s.ready.Seconds())
		if i < setupReps-1 {
			stop(s)
		} else {
			srv = s
		}
	}
	setup := median(setups)

	tg, err := dialTarget(srv.addr)
	if err != nil {
		return nil, err
	}
	gens := newGens(w, cfg.seed)
	acked := map[int64]int64{}
	warm := newSamples()
	if err := runPhase(tg, w, gens, phase{closed: true, window: closedWindow, slots: w.slotsFor(warmup)}, warm, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	merge(acked, warm.acked)
	closed := newSamples()
	if err := runPhase(tg, w, gens, phase{closed: true, window: closedWindow, slots: w.slotsFor(closedDur)}, closed, nil); err != nil {
		return nil, fmt.Errorf("closed-loop phase: %w", err)
	}
	merge(acked, closed.acked)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var replayPerSec float64
	if w.recovery != "none" {
		if err := w.checkGate(tg, acked); err != nil {
			return nil, fmt.Errorf("before crash: %w", err)
		}
		// Crash and restart on the same log: the restart replays every
		// acked batch, and the gate then proves none was lost.
		tg.close()
		stop(srv)
		records, _, _, err := readLog(logDir, 0)
		if err != nil {
			return nil, err
		}
		srv, err = startServer(cfg.serverBin, "-app", w.app, "-partitions", fmt.Sprint(conns),
			"-recovery", w.recovery, "-log", logDir)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		track(srv)
		replayPerSec = float64(records) / (srv.ready.Seconds() - setup)
		if tg, err = dialTarget(srv.addr); err != nil {
			return nil, err
		}
		if err := w.checkGate(tg, acked); err != nil {
			return nil, fmt.Errorf("after restart: %w", err)
		}
	}
	open := newSamples()
	if err := runPhase(tg, w, gens, phase{rate: w.openRate, dur: openDur}, open, nil); err != nil {
		return nil, fmt.Errorf("open-loop phase: %w", err)
	}
	merge(acked, open.acked)
	if err := w.checkGate(tg, acked); err != nil {
		return nil, err
	}
	rss2, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	tg.close()
	stop(srv)

	ms := func(xs []float64, p float64) float64 { return pct(xs, p) / 1e6 }
	attempted := warm.attempts + closed.attempts + open.attempts
	r := &tcpRun{
		attempted: attempted,
		failed:    warm.failed + closed.failed + open.failed,
		endToEnd: map[string]float64{
			"setup_s":              setup,
			"ingest_batches_per_s": closed.rate(),
			"ack_p50_ms":           open.calmPct(open.ack, 50),
			"server_rss_mb":        max(rss, rss2),
		},
		layers: map[string]float64{
			"read_p50_ms":          open.calmPct(open.read, 50),
			"ack_p99_ms":           open.calmPct(open.ack, 99),
			"read_p99_ms":          open.calmPct(open.read, 99),
			"call_p50_ms":          open.calmPct(open.call, 50),
			"call_p99_ms":          open.calmPct(open.call, 99),
			"replay_records_per_s": replayPerSec,
			"failed_ratio":         float64(warm.failed+closed.failed+open.failed) / float64(attempted),
			"gen_lag_ms.p99":       ms(open.genLag, 99),
			"client.send_us.p50":   pct(append(closed.send, open.send...), 50) / 1e3,
		},
		ackSendP50us: open.calmPct(open.ackSend, 50) * 1e3,
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: setup %.3fs, closed %d batches in %.2fs, open %d batches (%d calls, %d reads) at %.0f/s\n",
		w.name, cfg.seed, setup, closed.batches, closed.elapsed.Seconds(), open.batches, open.calls, open.reads, w.openRate)
	return r, nil
}

// phaseDurs splits a run's measured seconds evenly between the closed
// loop (its nominal length at the workload's capacity) and the open
// loop. The host's noise comes in bursts a few seconds long, so each
// phase needs about 15 s to average over several.
func phaseDurs(seconds int) (closed, open time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total / 2, total - total/2
}

func merge(dst, src map[int64]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// readLog streams the command log under base in merged order, returning
// the record count, the time spent reading, and up to keep records.
func readLog(base string, keep int) (n int, took time.Duration, kept []*wal.Record, err error) {
	t0 := time.Now()
	r, err := wal.OpenSetReader(base)
	if err != nil {
		return 0, 0, nil, err
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, nil, err
		}
		n++
		if len(kept) < keep {
			kept = append(kept, rec)
		}
	}
	return n, time.Since(t0), kept, nil
}
