package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sstore/internal/types"
)

// target executes requests: the TCP client against sstore-server, or
// an in-process engine.
type target interface {
	reader
	// ingest submits a batch; the request is admitted before ingest
	// returns, and the channel receives the border commit outcome.
	ingest(conn int, stream string, id int64, rows []types.Row) (<-chan error, error)
	drain() error
}

// sleepUntil blocks until t with nanosleep(2): the Go timer parks a
// goroutine for at least 1 ms when the runtime is otherwise idle, too
// coarse for slots 100 µs apart. Blocking the thread in the kernel wakes
// within timer slack (about 50 µs).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early (EINTR) wake only adds to the slot's lag
	}
}

// maxGenLag is how late the open-loop generator may send a slot before
// the run is invalid: beyond it the offered rate was not offered.
const maxGenLag = 200 * time.Millisecond

// phase is one load phase. A closed phase keeps window requests in
// flight per connection; an open phase sends on a fixed schedule of
// rate batches/s across the connections. A phase ends after dur, or
// after slots slots per connection when dur is zero.
type phase struct {
	closed bool
	window int
	rate   float64
	dur    time.Duration
	slots  int
}

// samples collects one phase's measurements; float64 durations are in ns.
type samples struct {
	mu       sync.Mutex
	batches  int64 // batches acked
	calls    int64
	reads    int64
	attempts int64
	failed   int64
	firstErr error
	ack      []timed   // open loop: due time → border commit ack
	ackSend  []timed   // open loop: submission → border commit ack
	call     []timed   // open loop: due time → call result
	read     []timed   // open loop: due time → read result
	send     []float64 // ingest submission: until the call returns
	genLag   []float64 // open loop: due time → slot sent
	acked    map[int64]int64
	elapsed  time.Duration // phase start → all outcomes in and drained
	start    time.Time
	windows  int    // complete stealWindow-wide windows seen; 0 without a steal counter
	calm     []bool // per window: steal at most the phase's median
}

func newSamples() *samples { return &samples{acked: make(map[int64]int64)} }

func (s *samples) fail(err error) {
	s.mu.Lock()
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

// runPhase drives every connection through one phase and drains the
// target. gens carry batch IDs across phases. A non-nil tr records each
// batch's admission and outcome spans.
func runPhase(tg target, w *workload, gens []opGen, ph phase, s *samples, tr *tracer) error {
	start := time.Now()
	s.start = start
	// Only open-loop latencies are filtered by window; a closed phase's
	// throughput counts its whole wall time.
	var ss *stealSampler
	if !ph.closed {
		ss = startSteal(start)
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if ph.closed {
				runClosed(tg, w, gens[c], c, ph, s, tr)
			} else {
				runOpen(tg, w, gens[c], c, ph, start, s, tr)
			}
		}(c)
	}
	wg.Wait()
	if ss != nil {
		s.calm = calmWindows(ss.finish())
		s.windows = len(s.calm)
	}
	if err := tg.drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	s.elapsed = time.Since(start)
	if s.failed > 0 {
		return fmt.Errorf("%d of %d requests failed; first: %w", s.failed, s.attempts, s.firstErr)
	}
	if !ph.closed && len(s.genLag) > 0 {
		if lag := time.Duration(maxOf(s.genLag)); lag > maxGenLag {
			return fmt.Errorf("open-loop generator fell behind its schedule by %v (limit %v): run invalid", lag, maxGenLag)
		}
	}
	return nil
}

func runClosed(tg target, w *workload, gen opGen, c int, ph phase, s *samples, tr *tracer) {
	sem := make(chan struct{}, ph.window)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; ph.slots == 0 || k < ph.slots; k++ {
		if ph.dur > 0 && time.Since(start) >= ph.dur {
			break
		}
		for _, o := range gen.next() {
			sem <- struct{}{}
			issue(tg, w, c, o, time.Time{}, s, tr, &wg, func() { <-sem })
		}
	}
	wg.Wait()
}

func runOpen(tg target, w *workload, gen opGen, c int, ph phase, start time.Time, s *samples, tr *tracer) {
	interval := float64(time.Second) * conns / ph.rate
	var wg sync.WaitGroup
	var lags []float64
	for k := 0; ph.slots == 0 || k < ph.slots; k++ {
		off := time.Duration(float64(k) * interval)
		if ph.dur > 0 && off >= ph.dur {
			break
		}
		due := start.Add(off)
		sleepUntil(due)
		lags = append(lags, float64(time.Since(due)))
		for _, o := range gen.next() {
			issue(tg, w, c, o, due, s, tr, &wg, func() {})
		}
	}
	wg.Wait()
	s.mu.Lock()
	s.genLag = append(s.genLag, lags...)
	s.mu.Unlock()
}

// issue sends one request and records its outcome asynchronously. A
// non-zero due marks an open-loop request, timed from its due time.
func issue(tg target, w *workload, c int, o op, due time.Time, s *samples, tr *tracer, wg *sync.WaitGroup, release func()) {
	s.mu.Lock()
	s.attempts++
	s.mu.Unlock()
	open := !due.IsZero()
	wg.Add(1)
	switch o.kind {
	case opIngest:
		t0 := time.Now()
		ch, err := tg.ingest(c, w.stream, o.batch, o.rows)
		t1 := time.Now()
		if tr != nil {
			tr.submitted(c, o.batch, t0, t1)
		}
		if err != nil {
			s.fail(fmt.Errorf("ingest batch %d: %w", o.batch, err))
			release()
			wg.Done()
			return
		}
		go func() {
			defer wg.Done()
			defer release()
			err := <-ch
			done := time.Now()
			if err != nil {
				s.fail(fmt.Errorf("ingest batch %d: %w", o.batch, err))
				return
			}
			if tr != nil {
				tr.outcome(c, o.batch, t0, done)
			}
			s.mu.Lock()
			s.batches++
			s.acked[o.key]++
			s.send = append(s.send, float64(t1.Sub(t0)))
			if open {
				s.ack = append(s.ack, timed{due.Sub(s.start), done.Sub(due)})
				s.ackSend = append(s.ackSend, timed{due.Sub(s.start), done.Sub(t0)})
			}
			s.mu.Unlock()
		}()
	case opCall, opRead:
		go func() {
			defer wg.Done()
			defer release()
			var err error
			if o.kind == opCall {
				_, err = tg.call(c, o.sp, o.params)
			} else {
				_, err = tg.read(c, o.pid, o.sql, o.params)
			}
			done := time.Now()
			if err != nil {
				s.fail(err)
				return
			}
			s.mu.Lock()
			if o.kind == opCall {
				s.calls++
				if open {
					s.call = append(s.call, timed{due.Sub(s.start), done.Sub(due)})
				}
			} else {
				s.reads++
				if open {
					s.read = append(s.read, timed{due.Sub(s.start), done.Sub(due)})
				}
			}
			s.mu.Unlock()
		}()
	}
}

// pct returns the p-th percentile (0..100) of xs by nearest rank, or
// 0 for no samples. It sorts xs in place.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// timed is one latency sample: when the request was due (or, in
// process, issued) relative to the phase start, and its latency.
type timed struct{ at, d time.Duration }

// stealWindow is the width of the windows a timed phase is split into.
// Steal — time the hypervisor ran other guests on this VM's vCPUs —
// arrives in bursts of a few ms that stall whichever request is in
// flight; on the 2-vCPU hosts the benchmark was sized on, a window with
// 2% steal doubles the p50 of the requests due in it.
const stealWindow = 250 * time.Millisecond

// stealSampler reads the host steal counter at every window boundary
// until stopped.
type stealSampler struct {
	ticks []int64
	stop  chan struct{}
	done  chan struct{}
}

func startSteal(start time.Time) *stealSampler {
	ss := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ss.done)
		for k := 0; ; k++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(k) * stealWindow)))
			select {
			case <-ss.stop:
				t.Stop()
				return
			case <-t.C:
			}
			v, ok := readSteal()
			if !ok {
				ss.ticks = nil
				return
			}
			ss.ticks = append(ss.ticks, v)
		}
	}()
	return ss
}

// finish stops the sampler and returns the steal in each window it saw
// complete, or nil when the counter is unavailable.
func (ss *stealSampler) finish() []int64 {
	close(ss.stop)
	<-ss.done
	if len(ss.ticks) < 2 {
		return nil
	}
	d := make([]int64, len(ss.ticks)-1)
	for i := range d {
		d[i] = ss.ticks[i+1] - ss.ticks[i]
	}
	return d
}

// readSteal returns the host's cumulative steal ticks from /proc/stat.
func readSteal() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}

// calmWindows marks the windows whose steal is at most the phase's
// median steal. Tied windows are all kept, so on a host without steal
// every window counts. The latency percentiles count only these
// windows, so a run's figure measures the system, not how much of the
// run the hypervisor took.
func calmWindows(steal []int64) []bool {
	c := make([]bool, len(steal))
	sorted := append([]int64(nil), steal...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	for i, v := range steal {
		c[i] = v <= sorted[(len(sorted)-1)/2]
	}
	return c
}

// isCalm reports whether the instant off after the phase start falls in
// a calm window. Without windows every instant counts.
func (s *samples) isCalm(off time.Duration) bool {
	if s.windows == 0 {
		return true
	}
	k := int(off / stealWindow)
	return off >= 0 && k < len(s.calm) && s.calm[k]
}

// rate is the acked batches per second over the whole phase, through
// the drain that waits for their workflows to finish.
func (s *samples) rate() float64 {
	return float64(s.batches) / s.elapsed.Seconds()
}

// calmPct is the p-th percentile latency, in ms, of the samples due in
// calm windows.
func (s *samples) calmPct(xs []timed, p float64) float64 {
	var ds []float64
	for _, x := range xs {
		if s.isCalm(x.at) {
			ds = append(ds, float64(x.d))
		}
	}
	return pct(ds, p) / 1e6
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
