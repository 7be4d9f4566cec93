// Command perfbench is the repository's benchmark: one workload per
// run, chosen with -workload, with inputs generated from -seed. Build
// and run it from the repository root with
//
//	bash perfbench/run.sh --workload ledger --seed 1 --seconds 20 --trace 0
//
// It sets up the workload several times (reporting the median set-up
// time), measures for -seconds, checks every output, and prints a
// human-readable report followed by one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 they are the per-layer ones: a fixed-size
// count pass gives counters per op, an untraced timed half gives
// load-dependent counter ratios, and a traced timed half records spans
// around the benchmark's calls into each layer and inside the closures
// and procs it hands to handlers. A failed check prints the violation
// and exits with status 1 without a JSON line. See manifest.json for
// what each workload loads and which metrics should move where.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/remote"
)

// phase is one stretch of load: time-bounded, or a fixed number of
// operations (blocks for ledger and bank, chains, requests for
// bank-open) when count > 0. tr is nil when the phase is untraced.
// window > 0 makes the phase keep its ops and latencies per window of
// that length, for the end-to-end metrics.
type phase struct {
	dur    time.Duration
	count  int
	tr     *tracer
	window time.Duration
}

// share splits the phase's op count over n clients, at least one op
// each; a time-bounded phase gives 0, which means run until stopped.
func (p phase) share(n int) int {
	if p.count == 0 {
		return 0
	}
	return max(p.count/n, 1)
}

// tally is what one phase observed. A tally is written by one
// goroutine; merge tallies after their writers finish. When ws is set,
// the tally also hands its ops to ws, window by window.
type tally struct {
	ops, failed int64
	guarded     int64 // ledger: guarded blocks
	lat         hist  // per op: block, read, chain, or request from its due time
	lag         hist  // bank-open: due time to send
	comm        []float64
	compute     []float64
	elapsed     time.Duration
	ws          *windows
	buf         []winSample // ops not yet handed to ws
}

// done records an operation that completed at ts after ns nanoseconds.
func (t *tally) done(ts, ns int64) {
	t.ops++
	t.lat.record(ns)
	t.sample(ts, ns)
}

// count records an operation at ts whose latency is not measured.
func (t *tally) count(ts int64) {
	t.ops++
	t.sample(ts, noLatency)
}

// fail records an operation that failed or was refused at ts.
func (t *tally) fail(ts int64) {
	t.ops++
	t.failed++
	t.lat.fail()
	t.sample(ts, failedOp)
}

func (t *tally) sample(ts, ns int64) {
	if t.ws == nil {
		return
	}
	if t.buf == nil {
		t.buf = make([]winSample, 0, winBatch)
	}
	t.buf = append(t.buf, winSample{ts, ns})
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

// flush hands the buffered ops to the phase's windows.
func (t *tally) flush() {
	if len(t.buf) > 0 {
		t.ws.add(t.buf)
		t.buf = t.buf[:0]
	}
}

func (t *tally) merge(o *tally) {
	o.flush()
	t.ops += o.ops
	t.failed += o.failed
	t.guarded += o.guarded
	t.lat.merge(&o.lat)
	t.lag.merge(&o.lag)
	t.comm = append(t.comm, o.comm...)
	t.compute = append(t.compute, o.compute...)
}

// winSample is one op as a tally buffers it for its windows: its
// completion time and latency, or noLatency or failedOp.
type winSample struct{ ts, ns int64 }

const (
	noLatency = -1
	failedOp  = -2
	winBatch  = 256 // ops a writer buffers before it takes the windows' lock
)

// windows holds a phase's ops per window of fixed width, counted from
// start, for all of the phase's writers. Each window keeps its op count
// and the p50 and p99 of its latencies. To bound memory, only the
// newest winOpen windows keep a latency hist; an older window is summed
// up and its hist reused, and an op that reaches it later counts in
// late instead of in its quantiles.
type windows struct {
	mu    sync.Mutex
	start int64
	width int64
	wins  []window
	open  []*hist // hists of the windows from len(wins)-len(open) on
	free  []*hist
	late  int64
}

// window is one window's figures; n counts its latency samples.
type window struct {
	ops, n   int64
	p50, p99 float64
}

const winOpen = 64

// windows returns the windows a phase starting at start keeps, or nil.
func (p phase) windows(start int64) *windows {
	if p.window <= 0 {
		return nil
	}
	return &windows{start: start, width: int64(p.window)}
}

func (w *windows) add(b []winSample) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range b {
		i := max(int((s.ts-w.start)/w.width), 0)
		for len(w.wins) <= i {
			w.grow()
		}
		w.wins[i].ops++
		if s.ns == noLatency {
			continue
		}
		j := i - (len(w.wins) - len(w.open))
		if j < 0 {
			w.late++
			continue
		}
		if s.ns == failedOp {
			w.open[j].fail()
		} else {
			w.open[j].record(s.ns)
		}
	}
}

// grow opens a new window, summing up the oldest open one past winOpen.
func (w *windows) grow() {
	if len(w.open) == winOpen {
		w.close(len(w.wins) - winOpen)
		h := w.open[0]
		*h = hist{}
		w.free = append(w.free, h)
		w.open = w.open[1:]
	}
	var h *hist
	if n := len(w.free); n > 0 {
		h, w.free = w.free[n-1], w.free[:n-1]
	} else {
		h = new(hist)
	}
	w.wins = append(w.wins, window{})
	w.open = append(w.open, h)
}

// close sums up window i from its open hist.
func (w *windows) close(i int) {
	h := w.open[i-(len(w.wins)-len(w.open))]
	w.wins[i].n = h.n
	w.wins[i].p50 = h.quantile(0.50)
	w.wins[i].p99 = h.quantile(0.99)
}

// whole sums up the open windows and returns the windows that lie
// wholly within elapsed. Call it after every writer has flushed.
func (w *windows) whole(elapsed time.Duration) []window {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.wins) - len(w.open); i < len(w.wins); i++ {
		w.close(i)
	}
	return w.wins[:min(int(int64(elapsed)/w.width), len(w.wins))]
}

// snapshot holds the public stats surfaces at one instant.
type snapshot struct {
	core   core.Stats
	mux    remote.MuxStats
	srv    remote.ServerStats
	remote bool
	mem    runtime.MemStats
}

// instance is a workload set up and ready to run.
type instance interface {
	run(p phase) (*tally, error)
	stats() snapshot
	check() error
	close()
}

// workload describes one named workload.
type workload struct {
	clients string        // the fixed client goroutines, as recorded with results
	every   uint64        // trace sampling: one request in every
	warm    int           // warm-up operations, part of set-up
	count   int           // operations of the count pass
	window  time.Duration // window of the end-to-end metrics; 0: the whole phase
	stat    windowStat    // how the end-to-end metrics sum up the windows
	setup   func(seed int64) (instance, error)
}

var workloads = map[string]workload{
	"ledger": {
		clients: fmt.Sprintf("%d clients + %d depositors", ledgerClients, ledgerClients),
		every:   32, warm: 20000, count: 20000, window: 200 * time.Millisecond, stat: median,
		setup: func(seed int64) (instance, error) { return newLedger(seed, safeTransfer), nil },
	},
	"chain": {
		clients: "1 client",
		every:   1, warm: 1, count: 1,
		setup: func(seed int64) (instance, error) { return newChain(seed, chainNR) },
	},
	"bank": {
		clients: fmt.Sprintf("%d sessions on 1 connection", bankSessions),
		every:   32, warm: 32 * bankSessions, count: 64 * bankSessions, window: 5 * time.Millisecond, stat: bestTenth,
		setup: func(seed int64) (instance, error) {
			s, err := newBankService(bankShards, bankAccounts, safeTransfer)
			if err != nil {
				return nil, err
			}
			return &bank{bankService: s, seed: seed}, nil
		},
	},
	"bank-open": {
		clients: fmt.Sprintf("%d sessions on 1 connection at %d req/s", bankOpenWorkers, bankOpenRate),
		every:   1, warm: 1000, count: 2000, window: 200 * time.Millisecond, stat: median,
		setup: func(seed int64) (instance, error) {
			s, err := newBankService(bankShards, bankAccounts, safeTransfer)
			if err != nil {
				return nil, err
			}
			return &bankOpen{bankService: s, seed: seed}, nil
		},
	},
}

// setupReps is how often a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 5

// traceCap bounds the span buffer of a traced phase.
const traceCap = 1 << 20

// mixSeed derives an independent stream seed (splitmix64 finaliser).
func mixSeed(seed, round, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(round)<<32 + uint64(i) + 0x632be59bd9b4e019
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) &^ (1 << 63))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// report is the run's result; metrics hold the JSON line's values.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	lines             []string // human-readable detail printed before the JSON line
}

func (r *report) printf(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: ledger, chain, bank or bank-open")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (ledger|chain|bank|bank-open), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", o.workload, o.seed, err)
		os.Exit(1)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d pool_workers=%d clients=%q go=%s git=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0),
		workloads[o.workload].clients, runtime.Version(), gitSHA())
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	out := map[string]any{"correct": true, "attempted": rep.attempted, "failed": rep.failed}
	ms := map[string]any{}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := rep.metrics[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = infLatency
		}
		ms[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	out["metrics"] = ms
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// infLatency stands in for an infinite latency (a failed operation) in
// the JSON line, which cannot carry +Inf.
const infLatency = 1e15

// run sets the workload up setupReps times, measures it, and checks it.
func run(o options) (*report, error) {
	w := workloads[o.workload]
	var inst instance
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		in, err := w.setup(o.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if _, err := in.run(phase{count: w.warm}); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			in.close()
			// Collect the closed instance now, so that its garbage does
			// not raise the next one's memory high-water mark.
			runtime.GC()
		} else {
			inst = in
		}
	}
	defer inst.close()
	rep := &report{metrics: map[string]float64{}}
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		t, err := inst.run(phase{dur: dur, window: w.window})
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		if err := inst.check(); err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = t.ops, t.failed
		endToEndMetrics(rep, o.workload, w.stat, t, quantileOf(setups, 0.5), rss)
		return rep, nil
	}
	return traced(o, w, inst, dur, rep)
}

// traced makes the three phases of a traced run: the count pass, an
// untraced half and a traced half of the measured time.
func traced(o options, w workload, inst instance, dur time.Duration, rep *report) (*report, error) {
	measure := func(p phase) (*tally, snapshot, snapshot, error) {
		before := inst.stats()
		runtime.ReadMemStats(&before.mem)
		t, err := inst.run(p)
		if err != nil {
			return nil, before, before, err
		}
		after := inst.stats()
		runtime.ReadMemStats(&after.mem)
		return t, before, after, nil
	}
	ct, c0, c1, err := measure(phase{count: w.count})
	if err != nil {
		return nil, err
	}
	ut, u0, u1, err := measure(phase{dur: dur / 2})
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.every, traceCap)
	tt, _, _, err := measure(phase{dur: dur / 2, tr: tr})
	if err != nil {
		return nil, err
	}
	if err := inst.check(); err != nil {
		return nil, err
	}
	spans := join(tr.recorded())
	if err := saveSpans(o.workload, spans); err != nil {
		return nil, err
	}
	rep.attempted = ct.ops + ut.ops + tt.ops
	rep.failed = ct.failed + ut.failed + tt.failed
	perLayerMetrics(rep, o.workload, ct, c0, c1, ut, u0, u1, tt, spans, tr)
	return rep, nil
}

// saveSpans writes the trace under .bench_build in the working
// directory, one file per workload, replacing the previous run's.
func saveSpans(name string, spans []span) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+name+".tsv"))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// gitSHA reads the commit from .git when the working directory is a
// checkout with one; "unknown" otherwise.
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}
