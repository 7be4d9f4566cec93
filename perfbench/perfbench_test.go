package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyRun runs a count pass and a short traced phase, then the check.
func tinyRun(t *testing.T, in instance, count int) error {
	t.Helper()
	defer in.close()
	if _, err := in.run(phase{count: count}); err != nil {
		t.Fatalf("count pass: %v", err)
	}
	tr := newTracer(1, 1<<16)
	if _, err := in.run(phase{dur: 50 * time.Millisecond, tr: tr}); err != nil {
		t.Fatalf("traced phase: %v", err)
	}
	if len(tr.recorded()) == 0 {
		t.Errorf("traced phase recorded no spans")
	}
	return in.check()
}

func newTinyBank(t *testing.T, xfer func([]int64, int, int, int64)) *bankService {
	t.Helper()
	s, err := newBankService(4, 64, xfer)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsPassChecksAtTinySize(t *testing.T) {
	t.Run("ledger", func(t *testing.T) {
		if err := tinyRun(t, newLedger(1, safeTransfer), 800); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("chain", func(t *testing.T) {
		c, err := newChain(1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := tinyRun(t, c, 2); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("bank", func(t *testing.T) {
		if err := tinyRun(t, &bank{bankService: newTinyBank(t, safeTransfer), seed: 1}, 2*bankSessions); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("bank-open", func(t *testing.T) {
		if err := tinyRun(t, &bankOpen{bankService: newTinyBank(t, safeTransfer), seed: 1}, 200); err != nil {
			t.Fatal(err)
		}
	})
}

// lossy is a planted faulty transfer: it debits and never credits.
func lossy(bal []int64, from, _ int, amt int64) {
	if bal[from] >= amt {
		bal[from] -= amt
	}
}

func TestPlantedLossyTransferIsCaught(t *testing.T) {
	t.Run("ledger", func(t *testing.T) {
		err := tinyRun(t, newLedger(1, lossy), 800)
		if err == nil || !strings.Contains(err.Error(), "not conserved") {
			t.Fatalf("check = %v, want a conservation violation", err)
		}
	})
	t.Run("bank", func(t *testing.T) {
		err := tinyRun(t, &bank{bankService: newTinyBank(t, lossy), seed: 1}, 2*bankSessions)
		if err == nil || !strings.Contains(err.Error(), "not conserved") {
			t.Fatalf("check = %v, want a conservation violation", err)
		}
	})
}

func TestPerturbedChainResultIsCaught(t *testing.T) {
	c, err := newChain(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if _, err := c.run(phase{count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.check(); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	c.first[len(c.first)/2] = math.Nextafter(c.first[len(c.first)/2], math.Inf(1))
	if err := c.check(); err == nil {
		t.Fatal("a result one ulp off the reference passed the check")
	}
}

func TestSelfTimeWithPartialChildCoverage(t *testing.T) {
	spans := []span{
		{name: spBlock, start: 0, end: 100},                 // 1: root
		{name: spEnqueue, parent: 1, start: 10, end: 30},    // 2
		{name: spCallWait, parent: 1, start: 20, end: 50},   // 3: overlaps 2
		{name: spExec, parent: 1, start: 90, end: 120},      // 4: runs past the root
		{name: spQueryReq, parent: 4, start: 100, end: 110}, // 5: inside 4
	}
	got := selfTimes(spans)
	// Root: 100 minus the union [10,50] + [90,100] = 50.
	// queue: 20 + 30. core: 30 - 10 for the exec span, 10 for its child.
	want := map[string]float64{"loadgen": 50, "queue": 50, "core": 30}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self[%s] = %v, want %v", l, got[l], w)
		}
	}
}

func TestJoinDerivesWaitAndPathSpans(t *testing.T) {
	spans := []span{
		{name: spRequest, req: 7, start: 0, end: 100},          // 1: root
		{name: spAdmit, req: 7, parent: 1, start: 0, end: 10},  // 2
		{name: spExec, req: 7, start: 40, end: 60},             // 3: server side, no parent
		{name: spEnqueue, req: 9, parent: 1, start: 5, end: 8}, // 4
		{name: spExec, req: 9, parent: 1, start: 20, end: 25},  // 5
		{name: spExec, req: 11, parent: 0, start: 70, end: 80}, // 6: no sender
	}
	out := join(spans)
	if out[2].parent != 1 {
		t.Errorf("server exec parent = %d, want the root 1", out[2].parent)
	}
	want := map[spanName][2]int64{
		spRequestPath: {10, 40},
		spReplyPath:   {60, 100},
		spCallWait:    {8, 20},
	}
	if len(out) != len(spans)+len(want) {
		t.Fatalf("join added %d spans, want %d", len(out)-len(spans), len(want))
	}
	for _, s := range out[len(spans):] {
		w, ok := want[s.name]
		if !ok || s.start != w[0] || s.end != w[1] || s.parent != 1 {
			t.Errorf("derived %s [%d,%d] parent %d, want %v parent 1", spanInfo[s.name].name, s.start, s.end, s.parent, w)
		}
	}
}

func TestHistQuantileWithinBucketError(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		exact := q * 100000 * 1000
		if got := h.quantile(q); math.Abs(got-exact)/exact > 1.0/64 {
			t.Errorf("q%v = %v, exact %v", q, got, exact)
		}
	}
	h.fail()
	h.fail()
	if got := h.quantile(1); !math.IsInf(got, 1) {
		t.Errorf("max with failed ops = %v, want +Inf", got)
	}
}

func TestWindowsSumUpEveryWriter(t *testing.T) {
	ms := int64(time.Millisecond)
	ws := phase{window: time.Millisecond}.windows(0)
	a, b := tally{ws: ws}, tally{ws: ws}
	for i := int64(0); i < 100; i++ {
		a.done(i, 10_000)
		b.done(i, 30_000)
		a.count(ms + i)
	}
	all := tally{ws: ws}
	all.merge(&a)
	all.merge(&b)
	wins := ws.whole(2 * time.Millisecond)
	if len(wins) != 2 || wins[0].ops != 200 || wins[0].n != 200 || wins[1].ops != 100 || wins[1].n != 0 {
		t.Fatalf("windows %+v, want 200 ops with latencies, then 100 without", wins)
	}
	for _, c := range []struct{ got, want float64 }{{wins[0].p50, 10_000}, {wins[0].p99, 30_000}} {
		if math.Abs(c.got-c.want)/c.want > 1.0/64 {
			t.Errorf("window quantile %v, want %v", c.got, c.want)
		}
	}

	// Once winOpen newer windows exist, a latency for the oldest one is
	// late: it counts as an op of its window but not in its quantiles.
	ws.add([]winSample{{ts: (winOpen + 2) * ms, ns: 1}})
	ws.add([]winSample{{ts: 0, ns: 1}})
	wins = ws.whole(time.Duration(winOpen+3) * time.Millisecond)
	if ws.late != 1 || wins[0].ops != 201 || wins[0].n != 200 {
		t.Errorf("late %d, window 0 %+v; want 1 late op, 201 ops, 200 latencies", ws.late, wins[0])
	}
}

func TestWindowStats(t *testing.T) {
	xs := func() []float64 {
		var v []float64
		for i := 20; i >= 1; i-- {
			v = append(v, float64(i))
		}
		return v
	}
	for _, c := range []struct {
		stat   windowStat
		higher bool
		want   float64
	}{{bestTenth, true, 19.5}, {bestTenth, false, 1.5}, {median, true, 10}, {median, false, 10}} {
		if got := c.stat.of(xs(), c.higher); got != c.want {
			t.Errorf("%s (higher %v) = %v, want %v", c.stat.name, c.higher, got, c.want)
		}
	}
}

// benchmarkJSON is the shape of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", n)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark reports %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %+v", i, m, d)
		}
	}
}

// manifest is the part of manifest.json the test cross-checks.
type manifest struct {
	Workloads map[string]struct {
		Loads    []string `json:"loads"`
		Bypasses []string `json:"bypasses"`
	} `json:"workloads"`
	LayerMap []struct {
		Metric string   `json:"metric"`
		Moves  []string `json:"moves"`
		On     []string `json:"on"`
		FlatOn []string `json:"flat_on"`
	} `json:"layer_metric_to_end_to_end"`
	Exact map[string][]string `json:"exact_at_fixed_seed"`
}

func TestManifestNamesKnownMetricsAndWorkloads(t *testing.T) {
	raw, err := os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for w := range workloads {
		if _, ok := m.Workloads[w]; !ok {
			t.Errorf("manifest lacks workload %s", w)
		}
	}
	for _, e := range m.LayerMap {
		if !known[e.Metric] {
			t.Errorf("mapping names unknown metric %s", e.Metric)
		}
		for _, n := range e.Moves {
			if !known[n] {
				t.Errorf("%s moves unknown metric %s", e.Metric, n)
			}
		}
		for _, w := range append(append([]string{}, e.On...), e.FlatOn...) {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s names unknown workload %s", e.Metric, w)
			}
		}
	}
	for w, ms := range m.Exact {
		if _, ok := workloads[w]; !ok {
			t.Errorf("exact counters for unknown workload %s", w)
		}
		for _, n := range ms {
			if !known[n] {
				t.Errorf("exact counter %s is not a metric", n)
			}
		}
	}
}
