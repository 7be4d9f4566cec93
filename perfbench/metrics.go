package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it. bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.20},
	{"latency_p50_us", "us", "lower", 0.20},
	{"latency_p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

var perLayer = []metricDef{
	{name: "core.reserve_wait_us.p50", unit: "us", better: "lower"},
	{name: "core.reserve_wait_us.p99", unit: "us", better: "lower"},
	{name: "core.guard_wait_us.p99", unit: "us", better: "lower"},
	{name: "core.guard_retries_per_op", unit: "1/op", better: "lower"},
	{name: "core.guard_success_ratio", unit: "ratio", better: "higher"},
	{name: "core.query_request_us.p50", unit: "us", better: "lower"},
	{name: "core.query_reply_us.p50", unit: "us", better: "lower"},
	{name: "core.exec_us.p50", unit: "us", better: "lower"},
	{name: "core.sync_elided_ratio", unit: "ratio", better: "higher"},
	{name: "core.sessions_reused_ratio", unit: "ratio", better: "higher"},
	{name: "core.comm_s", unit: "s", better: "lower"},
	{name: "core.compute_s", unit: "s", better: "lower"},
	{name: "core.reservations_per_op", unit: "1/op", better: "lower"},
	{name: "core.multi_reservations_per_op", unit: "1/op", better: "lower"},
	{name: "core.syncs_performed_per_op", unit: "1/op", better: "lower"},
	{name: "core.syncs_elided_per_op", unit: "1/op", better: "higher"},
	{name: "queue.call_enqueue_ns.p50", unit: "ns", better: "lower"},
	{name: "queue.call_wait_us.p50", unit: "us", better: "lower"},
	{name: "queue.call_wait_us.p99", unit: "us", better: "lower"},
	{name: "sched.handler_parks_per_op", unit: "1/op", better: "lower"},
	{name: "sched.worker_parks_per_op", unit: "1/op", better: "lower"},
	{name: "sched.local_push_ratio", unit: "ratio", better: "higher"},
	{name: "sched.steals_per_op", unit: "1/op", better: "lower"},
	{name: "sched.task_steals", unit: "1/op", better: "lower"},
	{name: "sched.task_wait_parks", unit: "1/op", better: "lower"},
	{name: "chain.randmat_s", unit: "s", better: "lower"},
	{name: "chain.thresh_s", unit: "s", better: "lower"},
	{name: "chain.winnow_s", unit: "s", better: "lower"},
	{name: "chain.outer_s", unit: "s", better: "lower"},
	{name: "chain.product_s", unit: "s", better: "lower"},
	{name: "remote.admit_us.p50", unit: "us", better: "lower"},
	{name: "remote.admit_us.p99", unit: "us", better: "lower"},
	{name: "remote.request_path_us.p50", unit: "us", better: "lower"},
	{name: "remote.request_path_us.p99", unit: "us", better: "lower"},
	{name: "remote.reply_path_us.p50", unit: "us", better: "lower"},
	{name: "remote.reply_path_us.p99", unit: "us", better: "lower"},
	{name: "remote.frames_per_flush", unit: "ratio", better: "higher"},
	{name: "remote.server.frames_per_flush", unit: "ratio", better: "higher"},
	{name: "remote.roundtrips_per_op", unit: "1/op", better: "lower"},
	{name: "remote.credit_stalls_per_op", unit: "1/op", better: "lower"},
	{name: "remote.writer_stalls_per_op", unit: "1/op", better: "lower"},
	{name: "remote.server.frames_parked_per_op", unit: "1/op", better: "lower"},
	{name: "remote.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "remote.slab_reuse_ratio", unit: "ratio", better: "higher"},
	{name: "go.allocs_per_op", unit: "1/op", better: "lower"},
	{name: "go.alloc_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "go.gc_pause_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.lag_us.p99", unit: "us", better: "lower"},
	{name: "loadgen.achieved_ops_s", unit: "1/s", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "selftime.loadgen_us_per_op", unit: "us", better: "lower"},
	{name: "selftime.queue_us_per_op", unit: "us", better: "lower"},
	{name: "selftime.core_us_per_op", unit: "us", better: "lower"},
	{name: "selftime.remote_us_per_op", unit: "us", better: "lower"},
	{name: "selftime.cowichan_us_per_op", unit: "us", better: "lower"},
}

// selfLayers are the layers spans are charged to, in print order.
var selfLayers = []string{"loadgen", "queue", "core", "remote", "cowichan"}

func rate(t *tally) float64 { return float64(t.ops) / t.elapsed.Seconds() }

// minWindows is the fewest windows with latencies that window figures
// are taken over.
const minWindows = 10

// windowStat sums up one figure of every window into the run's figure;
// higher tells whether a higher figure is the better one. of may sort xs
// in place.
type windowStat struct {
	name string
	of   func(xs []float64, higher bool) float64
}

// median is the median over all windows. It suits a workload that keeps
// the CPU busy, whose windows the host's steal rarely touches.
var median = windowStat{"medians", func(xs []float64, _ bool) float64 { return quantileOf(xs, 0.5) }}

// bestTenth is the mean of the best tenth of the windows (at least
// one): the highest figures when higher is better, else the lowest. It
// suits a workload that idles on I/O. On a shared virtual machine each
// wake-up from idle waits for the host to run the vCPU again, which
// stalls the run for milliseconds at a rate that changes from minute to
// minute, so medians over windows follow the host; short windows that
// no stall hit show what the program itself does, and their figures
// repeat from run to run.
var bestTenth = windowStat{"means over the best tenth", meanOfBestTenth}

func meanOfBestTenth(xs []float64, higher bool) float64 {
	sort.Float64s(xs)
	k := max((len(xs)+9)/10, 1)
	if higher {
		xs = xs[len(xs)-k:]
	} else {
		xs = xs[:k]
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(k)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics reports throughput and latency quantiles over the
// phase's whole windows, summed up by stat. A window's throughput is
// its ops over its width, its latency quantiles those of its ops. chain,
// whose ops take about half a second each, keeps no windows; it and runs
// too short for minWindows windows use the whole phase instead.
func endToEndMetrics(rep *report, name string, stat windowStat, t *tally, setup, rss float64) {
	m := rep.metrics
	var wins []window
	if t.ws != nil {
		wins = t.ws.whole(t.elapsed)
	}
	var tp, p50, p99, n []float64
	for _, w := range wins {
		tp = append(tp, float64(w.ops)*float64(time.Second)/float64(t.ws.width))
		if w.n > 0 {
			p50 = append(p50, w.p50/1e3)
			p99 = append(p99, w.p99/1e3)
			n = append(n, float64(w.n))
		}
	}
	if len(p99) < minWindows {
		m["throughput_ops_s"] = rate(t)
		m["latency_p50_us"] = t.lat.quantile(0.50) / 1e3
		m["latency_p99_us"] = t.lat.quantile(0.99) / 1e3
	} else {
		m["throughput_ops_s"] = stat.of(tp, true)
		m["latency_p50_us"] = stat.of(p50, false)
		m["latency_p99_us"] = stat.of(p99, false)
		rep.printf("throughput and latency: %s of %d windows of %v (median %.0f latency samples a window, %d too late for their window)",
			stat.name, len(wins), time.Duration(t.ws.width), quantileOf(n, 0.5), t.ws.late)
		if stat.name != median.name {
			rep.printf("medians over all windows: throughput %.0f/s, p50 %.1f us, p99 %.1f us",
				quantileOf(tp, 0.5), quantileOf(p50, 0.5), quantileOf(p99, 0.5))
		}
	}
	m["setup_s"] = setup
	m["peak_rss_mb"] = rss
	for _, d := range endToEnd {
		rep.printf("%-20s %14.4f %-5s", d.name, m[d.name], d.unit)
	}
	rep.printf("%-20s %14.4f %-5s (%d of %d ops)", "failed_ratio", ratio(float64(t.failed), float64(t.ops)), "", t.failed, t.ops)
	rep.printf("%-20s %14.4f %-5s (seconds per op over %.2f s)", "wall_s", t.elapsed.Seconds()/float64(t.ops), "s", t.elapsed.Seconds())
	rep.printf("whole-run latency: p50 %.1f us, p99 %.1f us over %d samples (%s)",
		t.lat.quantile(0.5)/1e3, t.lat.quantile(0.99)/1e3, t.lat.n, map[string]string{
			"ledger": "one per block", "chain": "one per chain",
			"bank": "one per read", "bank-open": "one per request, from its due time",
		}[name])
}

// perLayerMetrics computes every per-layer metric: exact counters per
// op from the count pass (c), load-dependent counter ratios from the
// untraced half (u), span timings and self time from the traced half.
func perLayerMetrics(rep *report, name string, ct *tally, c0, c1 snapshot, ut *tally, u0, u1 snapshot, tt *tally, spans []span, tr *tracer) {
	m := rep.metrics

	cn := float64(ct.ops)
	dc := func(f func(s snapshot) float64) float64 { return f(c1) - f(c0) }
	elided := dc(func(s snapshot) float64 { return float64(s.core.SyncsElided) })
	performed := dc(func(s snapshot) float64 { return float64(s.core.SyncsPerformed) })
	m["core.reservations_per_op"] = dc(func(s snapshot) float64 { return float64(s.core.Reservations) }) / cn
	m["core.multi_reservations_per_op"] = dc(func(s snapshot) float64 { return float64(s.core.MultiResGroups) }) / cn
	m["core.syncs_performed_per_op"] = performed / cn
	m["core.syncs_elided_per_op"] = elided / cn
	m["core.sync_elided_ratio"] = ratio(elided, elided+performed)
	m["go.allocs_per_op"] = dc(func(s snapshot) float64 { return float64(s.mem.Mallocs) }) / cn
	m["go.alloc_bytes_per_op"] = dc(func(s snapshot) float64 { return float64(s.mem.TotalAlloc) }) / cn
	if c1.remote {
		m["remote.roundtrips_per_op"] = dc(func(s snapshot) float64 { return float64(s.mux.RoundTrips) }) / cn
	}

	un := float64(ut.ops)
	du := func(f func(s snapshot) float64) float64 { return f(u1) - f(u0) }
	retries := du(func(s snapshot) float64 { return float64(s.core.GuardRetries) })
	if ut.guarded > 0 {
		m["core.guard_retries_per_op"] = retries / float64(ut.guarded)
		m["core.guard_success_ratio"] = float64(ut.guarded) / (float64(ut.guarded) + retries)
	}
	reused := du(func(s snapshot) float64 { return float64(s.core.SessionsReused) })
	m["core.sessions_reused_ratio"] = ratio(reused, reused+du(func(s snapshot) float64 { return float64(s.core.SessionsNew) }))
	m["core.comm_s"] = quantileOf(ut.comm, 0.5)
	m["core.compute_s"] = quantileOf(ut.compute, 0.5)
	m["sched.handler_parks_per_op"] = du(func(s snapshot) float64 { return float64(s.core.HandlerParks) }) / un
	m["sched.worker_parks_per_op"] = du(func(s snapshot) float64 { return float64(s.core.WorkerParks) }) / un
	local := du(func(s snapshot) float64 { return float64(s.core.LocalPushes) })
	m["sched.local_push_ratio"] = ratio(local, local+du(func(s snapshot) float64 { return float64(s.core.InjectorPushes) }))
	m["sched.steals_per_op"] = du(func(s snapshot) float64 { return float64(s.core.Steals) }) / un
	m["sched.task_steals"] = du(func(s snapshot) float64 { return float64(s.core.TaskSteals) }) / un
	m["sched.task_wait_parks"] = du(func(s snapshot) float64 { return float64(s.core.TaskWaitParks) }) / un
	if u1.remote {
		m["remote.frames_per_flush"] = ratio(du(func(s snapshot) float64 { return float64(s.mux.Frames) }),
			du(func(s snapshot) float64 { return float64(s.mux.Flushes) }))
		m["remote.server.frames_per_flush"] = ratio(du(func(s snapshot) float64 { return float64(s.srv.Frames) }),
			du(func(s snapshot) float64 { return float64(s.srv.Flushes) }))
		m["remote.credit_stalls_per_op"] = du(func(s snapshot) float64 { return float64(s.mux.CreditStalls) }) / un
		m["remote.writer_stalls_per_op"] = du(func(s snapshot) float64 { return float64(s.mux.WriterStalls) }) / un
		m["remote.server.frames_parked_per_op"] = du(func(s snapshot) float64 { return float64(s.srv.FramesParked) }) / un
		m["remote.bytes_per_op"] = du(func(s snapshot) float64 { return float64(s.mux.BytesIn + s.mux.BytesOut) }) / un
		if u1.mux.BytesOut > u0.mux.BytesOut {
			// Decoded payloads: every bytes request on the server and
			// every bytes reply on the client.
			m["remote.slab_reuse_ratio"] = du(func(s snapshot) float64 { return float64(s.mux.SlabReuses) }) /
				float64(ut.ops+ut.lat.n)
		}
	}
	m["go.gc_pause_p99_us"] = gcPauseP99(u0, u1) / 1e3
	m["loadgen.lag_us.p99"] = ut.lag.quantile(0.99) / 1e3
	m["loadgen.achieved_ops_s"] = rate(ut)

	q := func(n spanName, p float64) float64 { return quantileOf(durations(spans, n), p) }
	m["core.reserve_wait_us.p50"] = q(spReserve, 0.5) / 1e3
	m["core.reserve_wait_us.p99"] = q(spReserve, 0.99) / 1e3
	m["core.guard_wait_us.p99"] = q(spGuard, 0.99) / 1e3
	m["core.query_request_us.p50"] = q(spQueryReq, 0.5) / 1e3
	m["core.query_reply_us.p50"] = q(spQueryRep, 0.5) / 1e3
	m["core.exec_us.p50"] = q(spExec, 0.5) / 1e3
	m["queue.call_enqueue_ns.p50"] = q(spEnqueue, 0.5)
	m["queue.call_wait_us.p50"] = q(spCallWait, 0.5) / 1e3
	m["queue.call_wait_us.p99"] = q(spCallWait, 0.99) / 1e3
	m["remote.admit_us.p50"] = q(spAdmit, 0.5) / 1e3
	m["remote.admit_us.p99"] = q(spAdmit, 0.99) / 1e3
	m["remote.request_path_us.p50"] = q(spRequestPath, 0.5) / 1e3
	m["remote.request_path_us.p99"] = q(spRequestPath, 0.99) / 1e3
	m["remote.reply_path_us.p50"] = q(spReplyPath, 0.5) / 1e3
	m["remote.reply_path_us.p99"] = q(spReplyPath, 0.99) / 1e3
	for i, k := range []string{"randmat", "thresh", "winnow", "outer", "product"} {
		m["chain."+k+"_s"] = q(spRandmat+spanName(i), 0.5) / 1e9
	}

	// The headline metric of each workload, traced over untraced, as a
	// cost: above 1 means tracing slowed the workload down.
	if name == "ledger" || name == "bank" {
		m["trace.overhead_ratio"] = ratio(rate(ut), rate(tt))
	} else {
		m["trace.overhead_ratio"] = ratio(tt.lat.quantile(0.5), ut.lat.quantile(0.5))
	}

	var ops int
	for _, s := range spans {
		if s.parent == 0 && (s.name == spBlock || s.name == spRequest || s.name == spChain || s.name == spAdmit) {
			ops++
		}
	}
	self := selfTimes(spans)
	var total float64
	for _, v := range self {
		total += v
	}
	rep.printf("self time per traced op (%d traced ops, 1 in %d sampled, %d spans, %d dropped):", ops, tr.every, len(spans), tr.dropped.Load())
	rep.printf("  %-10s %12s %8s", "layer", "us/op", "share")
	for _, l := range selfLayers {
		v := ratio(self[l], float64(ops)) / 1e3
		m["selftime."+l+"_us_per_op"] = v
		rep.printf("  %-10s %12.3f %7.1f%%", l, v, 100*ratio(self[l], total))
	}
	counts := map[string]int{}
	for _, s := range spans {
		if s.end != 0 {
			counts[spanInfo[s.name].name]++
		}
	}
	names := make([]string, 0, len(counts))
	for k, v := range counts {
		names = append(names, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(names)
	rep.printf("span samples: %s", strings.Join(names, " "))
	rep.printf("count pass: %d ops; untraced half: %d ops in %.2f s; traced half: %d ops in %.2f s",
		ct.ops, ut.ops, ut.elapsed.Seconds(), tt.ops, tt.elapsed.Seconds())
	for _, d := range perLayer {
		rep.printf("%-36s %14.4f %s", d.name, m[d.name], d.unit)
	}
}

// gcPauseP99 returns the p99 of the stop-the-world pauses between two
// snapshots, in nanoseconds (the runtime keeps the last 256).
func gcPauseP99(a, b snapshot) float64 {
	n := b.mem.NumGC - a.mem.NumGC
	if n > 256 {
		n = 256
	}
	ps := make([]float64, 0, n)
	for i := uint32(0); i < n; i++ {
		ps = append(ps, float64(b.mem.PauseNs[(b.mem.NumGC-i+255)%256]))
	}
	return quantileOf(ps, 0.99)
}
