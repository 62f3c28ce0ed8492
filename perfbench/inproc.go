package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sstore/internal/pe"
	"sstore/internal/recovery"
	"sstore/internal/stream"
	"sstore/internal/types"
	"sstore/internal/wal"
	"sstore/internal/wire"
)

// spSet lists the stored procedures whose bodies the traced run times.
var spSet = []string{"Clean", "Aggregate", "Report", "UpdatePosition", "MinuteRollup"}

// tableSet lists the app tables whose end-of-run row counts are
// reported; streams are left out, since a drained engine has
// garbage-collected every batch.
var tableSet = []string{"averages", "vehicles", "seg_stats", "seg_tolls", "accidents", "notifications", "stats_history", "lr_clock"}

// borderSP is the stored procedure that consumes each app's border
// stream.
var borderSP = map[string]string{"pipeline": "Clean", "linearroad": "UpdatePosition"}

// engTarget drives an in-process engine with direct calls.
type engTarget struct {
	eng    *pe.Engine
	origin time.Time
	mu     sync.Mutex
	rd     []timed // Engine.Read latencies, at offsets from origin
}

func (t *engTarget) ingest(_ int, streamName string, id int64, rows []types.Row) (<-chan error, error) {
	return t.eng.IngestAsync(streamName, &stream.Batch{ID: id, Rows: rows})
}

func (t *engTarget) call(_ int, sp string, params types.Row) ([]types.Row, error) {
	r := <-t.eng.CallAsync(sp, params)
	if r.Err != nil {
		return nil, r.Err
	}
	return r.Res.Rows, nil
}

func (t *engTarget) read(_ int, pid int, sql string, params types.Row) ([]types.Row, error) {
	t0 := time.Now()
	res, err := t.eng.Read(pid, sql, params...)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.rd = append(t.rd, timed{t0.Sub(t.origin), d})
	t.mu.Unlock()
	return res.Rows, nil
}

func (t *engTarget) drain() error { return t.eng.Drain() }

// newEngine builds the workload's app in process, logging strongly to
// logDir when the workload does.
func newEngine(w *workload, logDir string, wrap func(*pe.StoredProc) *pe.StoredProc) (*pe.Engine, error) {
	opts, err := w.engineOptions()
	if err != nil {
		return nil, err
	}
	if w.recovery == "strong" {
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			return nil, err
		}
		opts.Recovery = recovery.ModeStrong
		opts.LogPath = logDir
	}
	eng, err := pe.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	if err := w.appSetup(eng, wrap); err != nil {
		_ = eng.Close() // the setup error is the one to report
		return nil, err
	}
	return eng, nil
}

func identity(sp *pe.StoredProc) *pe.StoredProc { return sp }

// span is one traced interval. Times are ns since the tracer's epoch.
type span struct {
	name   string
	part   int
	batch  int64
	start  int64
	end    int64
	parent int // index of the span that caused this one; -1 for a root
}

// tracer is the traced run's in-memory span recorder. The generator
// records each batch's admission (the IngestAsync call) and outcome
// (its commit ack on the channel); wrapped procedures record their
// bodies, keyed by ctx.Partition() and ctx.BatchID().
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Each connection owns partition conn, so the generator's spans key by it.
func (t *tracer) submitted(conn int, batch int64, start, admitted time.Time) {
	t.add(span{name: "pe.admit", part: conn, batch: batch, start: t.at(start), end: t.at(admitted)})
}

func (t *tracer) outcome(conn int, batch int64, start, done time.Time) {
	t.add(span{name: "pe.outcome", part: conn, batch: batch, start: t.at(start), end: t.at(done)})
}

func (t *tracer) wrap(sp *pe.StoredProc) *pe.StoredProc {
	body := sp.Func
	name := "ee.body." + sp.Name
	return &pe.StoredProc{Name: sp.Name, Access: sp.Access, Func: func(ctx *pe.ProcCtx) error {
		start := time.Now()
		err := body(ctx)
		t.add(span{name: name, part: ctx.Partition(), batch: ctx.BatchID(), start: t.at(start), end: t.at(time.Now())})
		return err
	}}
}

// split is the per-batch stage breakdown derived from the spans, in ns.
type split struct {
	admit, queue, body, commit, outcome []float64
	interiorLag                         []float64
	bodyBySP                            map[string][]float64
}

// stages joins each batch's spans into contiguous stages that sum to
// its outcome: admit is the IngestAsync call, cut at the border body's
// start when the partition began the body before the call returned;
// queue wait runs to the body's start; commit path runs from the
// body's end to the outcome. It derives the queue-wait and commit-path
// spans and links every span to the one that caused it. The returned
// samples cover only batches admitted, and bodies started, at instants
// keep accepts.
func (t *tracer) stages(border string, keep func(ns int64) bool) *split {
	type key struct {
		part  int
		batch int64
	}
	type idx struct{ admit, outcome, body, interior int }
	by := map[key]*idx{}
	get := func(k key) *idx {
		if by[k] == nil {
			by[k] = &idx{-1, -1, -1, -1}
		}
		return by[k]
	}
	sp := &split{bodyBySP: map[string][]float64{}}
	for i, s := range t.spans {
		k := key{s.part, s.batch}
		switch {
		case s.name == "pe.admit":
			get(k).admit = i
		case s.name == "pe.outcome":
			get(k).outcome = i
		case s.name == "ee.body."+border:
			get(k).body = i
		case s.batch != 0:
			get(k).interior = i
		}
		if n := s.name; len(n) > 8 && n[:8] == "ee.body." && keep(s.start) {
			sp.bodyBySP[n[8:]] = append(sp.bodyBySP[n[8:]], float64(s.end-s.start))
		}
	}
	keys := make([]key, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].part != keys[j].part {
			return keys[i].part < keys[j].part
		}
		return keys[i].batch < keys[j].batch
	})
	for _, k := range keys {
		x := by[k]
		kept := x.admit < 0 || keep(t.spans[x.admit].start)
		if x.body >= 0 && x.interior >= 0 {
			t.spans[x.interior].parent = x.body
			if kept {
				sp.interiorLag = append(sp.interiorLag, float64(t.spans[x.interior].start-t.spans[x.body].end))
			}
		}
		if x.admit < 0 || x.outcome < 0 || x.body < 0 {
			continue
		}
		root := x.outcome
		o, b := t.spans[root], t.spans[x.body]
		t.spans[x.admit].end = min(t.spans[x.admit].end, b.start)
		t.spans[x.admit].parent, t.spans[x.body].parent = root, root
		a := t.spans[x.admit]
		t.spans = append(t.spans,
			span{name: "pe.queue_wait", part: k.part, batch: k.batch, start: a.end, end: b.start, parent: root},
			span{name: "pe.commit_path", part: k.part, batch: k.batch, start: b.end, end: o.end, parent: root})
		if !kept {
			continue
		}
		sp.admit = append(sp.admit, float64(a.end-a.start))
		sp.queue = append(sp.queue, float64(b.start-a.end))
		sp.body = append(sp.body, float64(b.end-b.start))
		sp.commit = append(sp.commit, float64(o.end-b.end))
		sp.outcome = append(sp.outcome, float64(o.end-o.start))
	}
	return sp
}

// dump writes every span with its self time — its duration minus the
// part its children cover — as CSV.
func (t *tracer) dump(path string) error {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,name,partition,batch,start_ns,end_ns,parent,self_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d,%d\n", i, s.name, s.part, s.batch, s.start, s.end, s.parent, t.self(i, kids[i]))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) self(i int, kids []int) int64 {
	s := t.spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(t.spans[k].start, s.start), min(t.spans[k].end, s.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	covered, cur := int64(0), s.start
	for _, v := range ivs {
		a := max(v.a, cur)
		if v.b > a {
			covered += v.b - a
			cur = v.b
		}
	}
	return (s.end - s.start) - covered
}

// nopTarget accepts every request instantly, so a dry pass over it
// measures what the load generator allocates on its own.
type nopTarget struct{ done chan error }

func (n nopTarget) ingest(int, string, int64, []types.Row) (<-chan error, error) { return n.done, nil }
func (n nopTarget) call(int, string, types.Row) ([]types.Row, error)             { return nil, nil }
func (n nopTarget) read(int, int, string, types.Row) ([]types.Row, error)        { return nil, nil }
func (n nopTarget) drain() error                                                 { return nil }

func newGens(w *workload, seed int64) []opGen {
	gens := make([]opGen, conns)
	for c := range gens {
		gens[c] = w.newGen(seed, c)
	}
	return gens
}

// closedRun is one in-process closed-loop run's throughput and runtime
// cost.
type closedRun struct {
	batchesPerSec float64
	batches       int64
	mallocs, gcs  uint64
}

func inprocClosed(w *workload, seed int64, logDir string, dur time.Duration, tr *tracer) (*closedRun, error) {
	wrap := identity
	if tr != nil {
		wrap = tr.wrap
	}
	eng, err := newEngine(w, logDir, wrap)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	s := newSamples()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err = runPhase(&engTarget{eng: eng}, w, newGens(w, seed), phase{closed: true, window: closedWindow, dur: dur}, s, tr)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	return &closedRun{
		batchesPerSec: s.rate(),
		batches:       s.batches,
		mallocs:       m1.Mallocs - m0.Mallocs,
		gcs:           uint64(m1.NumGC - m0.NumGC),
	}, nil
}

// dryMallocsPerBatch runs the closed-loop generator over nopTarget for the
// same number of slots.
func dryMallocsPerBatch(w *workload, seed int64, slots int) (float64, error) {
	done := make(chan error)
	close(done)
	s := newSamples()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err := runPhase(nopTarget{done}, w, newGens(w, seed), phase{closed: true, window: closedWindow, slots: slots}, s, nil)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, err
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(s.batches), nil
}

// openRun is the traced open-loop in-process run.
type openRun struct {
	s          *samples
	stats      pe.Stats
	split      *split
	readUs     []float64
	queueDepth float64
	rows       map[string]int
	logBytes   int64
	wire       *wireRun
	tr         *tracer
}

// inprocOpen drives a traced engine through one open-loop phase, then
// gathers the engine's counters, table sizes and the wire encoding of
// the phase's requests and responses, and checks the gates.
func inprocOpen(w *workload, seed int64, logDir string, ph phase) (*openRun, error) {
	tr := newTracer()
	eng, err := newEngine(w, logDir, tr.wrap)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	origin := time.Now()
	tg := &engTarget{eng: eng, origin: origin}

	// Sample every partition's queue depth each millisecond.
	stopSampling := make(chan struct{})
	depths := make(chan []timed)
	go func() {
		var ds []timed
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stopSampling:
				depths <- ds
				return
			case now := <-tk.C:
				for p := 0; p < conns; p++ {
					if d, err := eng.QueueDepth(p); err == nil {
						ds = append(ds, timed{now.Sub(origin), time.Duration(d)})
					}
				}
			}
		}
	}()
	s := newSamples()
	err = runPhase(tg, w, newGens(w, seed), ph, s, tr)
	close(stopSampling)
	sampledDepths := <-depths
	if err != nil {
		return nil, err
	}
	// Offsets from origin and from the tracer's epoch, moved to the
	// phase start, decide which samples fall in calm windows.
	shift := s.start.Sub(origin)
	r := &openRun{s: s, tr: tr, rows: map[string]int{}}
	var sum, n float64
	for _, d := range sampledDepths {
		if s.isCalm(d.at - shift) {
			sum += float64(d.d)
			n++
		}
	}
	r.queueDepth = sum / max(n, 1)
	for _, x := range tg.rd {
		if s.isCalm(x.at - shift) {
			r.readUs = append(r.readUs, float64(x.d))
		}
	}
	r.stats = eng.Stats()
	if r.stats.TriggerErrors != 0 {
		return nil, fmt.Errorf("gate: %d trigger errors: %v", r.stats.TriggerErrors, eng.TriggerErr())
	}
	for p := 0; p < conns; p++ {
		infos, err := eng.Tables(p)
		if err != nil {
			return nil, err
		}
		for _, ti := range infos {
			r.rows[ti.Name] += ti.Rows
		}
	}
	if w.recovery == "strong" {
		if r.logBytes, err = dirBytes(logDir); err != nil {
			return nil, err
		}
	}
	if r.wire, err = measureWire(w, seed, int(s.batches)/conns, eng); err != nil {
		return nil, err
	}
	if err := w.checkGate(tg, s.acked); err != nil {
		return nil, fmt.Errorf("in-process: %w", err)
	}
	epoch := tr.epoch
	r.split = tr.stages(borderSP[w.app], func(ns int64) bool { return s.isCalm(epoch.Add(time.Duration(ns)).Sub(s.start)) })
	return r, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// counts are the per-layer metrics that must repeat exactly for a
// given seed and batch count.
func (r *openRun) counts() map[string]float64 {
	b := float64(r.s.batches)
	m := map[string]float64{
		"pe.tes_per_batch":          float64(r.stats.Executed-uint64(r.s.calls)) / b,
		"wal.appends_per_batch":     float64(r.stats.LogAppends) / b,
		"wal.fsyncs_per_te":         float64(r.stats.LogSyncs) / float64(r.stats.Executed),
		"wal.log_bytes_per_batch":   float64(r.logBytes) / b,
		"wire.req_bytes_per_batch":  float64(r.wire.reqBytes) / b,
		"wire.resp_bytes_per_batch": float64(r.wire.respBytes) / b,
	}
	return m
}

// wireRun is the wire codec applied to one run's requests and responses.
type wireRun struct {
	reqBytes, respBytes        int64
	enc, dec, respEnc, respDec []float64 // ns per message
}

// measureWire regenerates the run's requests from the seed, frames and
// decodes each, and does the same for its responses: ingest acks, and
// call and read results computed from the engine's drained state.
func measureWire(w *workload, seed int64, slots int, eng *pe.Engine) (*wireRun, error) {
	r := &wireRun{}
	results := map[string]*wire.Response{}
	var buf []byte
	for c, g := range newGens(w, seed) {
		var id uint64
		for k := 0; k < slots; k++ {
			for _, o := range g.next() {
				id++
				req := &wire.Request{ID: id}
				resp := &wire.Response{ID: id, Status: wire.StatusOK}
				switch o.kind {
				case opIngest:
					req.Op, req.Stream, req.BatchID, req.Rows = wire.OpIngest, w.stream, o.batch, o.rows
					resp.BatchID = o.batch
				case opCall:
					req.Op, req.SP, req.Params = wire.OpCall, o.sp, o.params
				case opRead:
					req.Op, req.Partition, req.SQL, req.Params = wire.OpQuery, o.pid, o.sql, o.params
				}
				resp.Op = req.Op
				if o.kind != opIngest {
					res, err := resultFor(results, eng, c, o)
					if err != nil {
						return nil, err
					}
					resp.Columns, resp.Rows = res.Columns, res.Rows
				}
				t0 := time.Now()
				buf = wire.AppendRequest(buf[:0], req)
				t1 := time.Now()
				if _, err := wire.DecodeRequest(buf[4:]); err != nil {
					return nil, err
				}
				t2 := time.Now()
				r.reqBytes += int64(len(buf))
				r.enc = append(r.enc, float64(t1.Sub(t0)))
				r.dec = append(r.dec, float64(t2.Sub(t1)))
				t0 = time.Now()
				buf = wire.AppendResponse(buf[:0], resp)
				t1 = time.Now()
				if _, err := wire.DecodeResponse(buf[4:]); err != nil {
					return nil, err
				}
				t2 = time.Now()
				r.respBytes += int64(len(buf))
				r.respEnc = append(r.respEnc, float64(t1.Sub(t0)))
				r.respDec = append(r.respDec, float64(t2.Sub(t1)))
			}
		}
	}
	return r, nil
}

// resultFor answers a call or read from the drained engine's snapshot,
// once per distinct request. Report is answered by its own SELECT, so
// strong logging records nothing extra.
func resultFor(cache map[string]*wire.Response, eng *pe.Engine, c int, o op) (*wire.Response, error) {
	sql, pid := o.sql, o.pid
	if o.kind == opCall {
		sql, pid = "SELECT sensor, total / n AS avg, n FROM averages WHERE sensor = ?", c
	}
	k := fmt.Sprint(pid, sql, o.params)
	if res, ok := cache[k]; ok {
		return res, nil
	}
	res, err := eng.Read(pid, sql, o.params...)
	if err != nil {
		return nil, err
	}
	cache[k] = &wire.Response{Columns: res.Columns, Rows: res.Rows}
	return cache[k], nil
}

// recoveryRun times reading and replaying a closed engine's log, and
// appending its records again under the default sync policy.
type recoveryRun struct {
	readUsPerRec, applyUsPerRec float64
	appendUs                    []float64
}

// walAppendSamples bounds the records re-appended for wal.append_us.
const walAppendSamples = 2000

func measureRecovery(w *workload, logDir, scratch string) (*recoveryRun, error) {
	n, readTook, kept, err := readLog(logDir, walAppendSamples)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("empty command log in %s", logDir)
	}
	eng, err := newEngine(w, logDir, identity)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = eng.Recover()
	recTook := time.Since(t0)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	r := &recoveryRun{
		readUsPerRec:  float64(readTook.Microseconds()) / float64(n),
		applyUsPerRec: float64((recTook - readTook).Microseconds()) / float64(n),
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	ls, err := wal.OpenSet(wal.SetOptions{Path: scratch, Partitions: conns, Policy: wal.SyncEachCommit})
	if err != nil {
		return nil, err
	}
	for _, rec := range kept {
		cp := *rec
		t0 := time.Now()
		if _, err := ls.Append(cp.Partition, &cp); err != nil {
			_ = ls.Close() // the append error is the one to report
			return nil, err
		}
		r.appendUs = append(r.appendUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return r, ls.Close()
}

// The traced run's in-process phases have fixed lengths, so a traced
// invocation takes about 17 s more than an untraced one.
const (
	overheadPairs = 5
	inprocOpenDur = 6 * time.Second
)

// measureLayers is the traced run: in-process closed loops without and
// with tracing, a traced open loop at the workload's rate, and for
// logged workloads the recovery and append costs of that loop's log.
func measureLayers(cfg config, dir string, tcpAckSendP50us float64) (map[string]float64, error) {
	w := cfg.w
	// An unmeasured first run grows the heap and faults in the code, so
	// no measured run pays the process's warm-up.
	if _, err := inprocClosed(w, cfg.seed, filepath.Join(dir, "warm"), time.Second, nil); err != nil {
		return nil, fmt.Errorf("in-process warm-up: %w", err)
	}
	// Untraced and traced closed loops alternate in short pairs: the
	// in-process rate drifts by more than tracing costs, so the overhead
	// is the median of the pairs' differences.
	var overheads []float64
	var mallocs, gcs, batches float64
	for i := 0; i < overheadPairs; i++ {
		plain, err := inprocClosed(w, cfg.seed, filepath.Join(dir, fmt.Sprint("plain", i)), time.Second, nil)
		if err != nil {
			return nil, fmt.Errorf("untraced in-process run: %w", err)
		}
		traced, err := inprocClosed(w, cfg.seed, filepath.Join(dir, fmt.Sprint("traced", i)), time.Second, newTracer())
		if err != nil {
			return nil, fmt.Errorf("traced in-process run: %w", err)
		}
		overheads = append(overheads, (plain.batchesPerSec-traced.batchesPerSec)/plain.batchesPerSec*100)
		mallocs += float64(plain.mallocs)
		gcs += float64(plain.gcs)
		batches += float64(plain.batches)
	}
	dry, err := dryMallocsPerBatch(w, cfg.seed, int(batches)/overheadPairs/conns)
	if err != nil {
		return nil, err
	}
	logDir := filepath.Join(dir, "open")
	or, err := inprocOpen(w, cfg.seed, logDir, phase{rate: w.openRate, dur: inprocOpenDur})
	if err != nil {
		return nil, fmt.Errorf("traced open-loop run: %w", err)
	}
	us := func(xs []float64, p float64) float64 { return pct(xs, p) / 1e3 }
	sp := or.split
	m := map[string]float64{
		"trace.overhead_pct":           median(overheads),
		"rt.mallocs_per_batch":         mallocs/batches - dry,
		"rt.gc_per_10k_batches":        gcs / batches * 1e4,
		"pe.admit_us.p50":              us(sp.admit, 50),
		"pe.admit_us.p99":              us(sp.admit, 99),
		"pe.queue_wait_us.p50":         us(sp.queue, 50),
		"pe.queue_wait_us.p99":         us(sp.queue, 99),
		"pe.commit_path_us.p50":        us(sp.commit, 50),
		"pe.commit_path_us.p99":        us(sp.commit, 99),
		"pe.outcome_us.p50":            us(sp.outcome, 50),
		"pe.outcome_us.p99":            us(sp.outcome, 99),
		"pe.interior_lag_us.p50":       us(sp.interiorLag, 50),
		"pe.aborts":                    float64(or.stats.Aborted),
		"pe.trigger_errors":            float64(or.stats.TriggerErrors),
		"pe.queue_depth.mean":          or.queueDepth,
		"server.leg_us.p50":            tcpAckSendP50us - us(sp.outcome, 50),
		"storage.read_us.p50":          us(or.readUs, 50),
		"storage.read_us.p99":          us(or.readUs, 99),
		"wire.encode_ns.p50":           pct(or.wire.enc, 50),
		"wire.decode_ns.p50":           pct(or.wire.dec, 50),
		"wire.resp_encode_ns.p50":      pct(or.wire.respEnc, 50),
		"wire.resp_decode_ns.p50":      pct(or.wire.respDec, 50),
		"wal.append_us.p50":            0,
		"wal.append_us.p99":            0,
		"recovery.read_us_per_record":  0,
		"recovery.apply_us_per_record": 0,
	}
	for k, v := range or.counts() {
		m[k] = v
	}
	for _, name := range spSet {
		m["ee.body_us."+name+".p50"] = us(sp.bodyBySP[name], 50)
		m["ee.body_us."+name+".p99"] = us(sp.bodyBySP[name], 99)
	}
	for _, t := range tableSet {
		m["storage.rows."+t] = float64(or.rows[t])
	}
	if w.recovery == "strong" {
		rr, err := measureRecovery(w, logDir, filepath.Join(dir, "walbench"))
		if err != nil {
			return nil, err
		}
		m["recovery.read_us_per_record"] = rr.readUsPerRec
		m["recovery.apply_us_per_record"] = rr.applyUsPerRec
		m["wal.append_us.p50"] = pct(rr.appendUs, 50)
		m["wal.append_us.p99"] = pct(rr.appendUs, 99)
	}

	spanDir := filepath.Join(filepath.Dir(cfg.work), "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(spanDir, w.name+".csv")
	if err := or.tr.dump(spanFile); err != nil {
		return nil, err
	}
	var tot float64
	for _, x := range sp.outcome {
		tot += x
	}
	share := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / tot * 100
	}
	fmt.Fprintf(os.Stderr, "%s traced split over %d batches (spans in %s), share of pe.outcome_us: admit %.1f%%, queue wait %.1f%%, %s body %.1f%%, commit path %.1f%%\n",
		w.name, len(sp.outcome), spanFile, share(sp.admit), share(sp.queue), borderSP[w.app], share(sp.body), share(sp.commit))
	return m, nil
}
