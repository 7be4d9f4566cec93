package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// epoch is the common time base of every span: handler-side and
// client-side timestamps share one monotonic clock, so spans recorded
// on different goroutines can be joined.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanName identifies what a span measures; spanInfo maps it to its
// printed name and the layer its self time is charged to.
type spanName uint8

const (
	spBlock       spanName = iota // ledger: one separate block, client side
	spRequest                     // bank/bank-open: one request, call or due time to reply
	spLag                         // bank-open: due time to send
	spReserve                     // Separate/SeparateMany call to body entry
	spGuard                       // SeparateWhen call to body entry
	spQueryReq                    // core.Query call to query closure start
	spQueryRep                    // query closure end to core.Query return
	spExec                        // closure or proc body, wherever it runs
	spEnqueue                     // Session.Call: private-queue enqueue and notify
	spCallWait                    // derived: Session.Call return to closure start
	spAdmit                       // remote send: credit wait and encode into the batch
	spRequestPath                 // derived: remote send return to proc start
	spReplyPath                   // derived: proc end to client future completion
	spChain                       // chain: one whole chain
	spRandmat
	spThresh
	spWinnow
	spOuter
	spProduct
	numSpanNames
)

var spanInfo = [numSpanNames]struct{ name, layer string }{
	spBlock:       {"loadgen.block", "loadgen"},
	spRequest:     {"loadgen.request", "loadgen"},
	spLag:         {"loadgen.lag", "loadgen"},
	spReserve:     {"core.reserve_wait", "core"},
	spGuard:       {"core.guard_wait", "core"},
	spQueryReq:    {"core.query_request", "core"},
	spQueryRep:    {"core.query_reply", "core"},
	spExec:        {"core.exec", "core"},
	spEnqueue:     {"queue.call_enqueue", "queue"},
	spCallWait:    {"queue.call_wait", "queue"},
	spAdmit:       {"remote.admit", "remote"},
	spRequestPath: {"remote.request_path", "remote"},
	spReplyPath:   {"remote.reply_path", "remote"},
	spChain:       {"loadgen.chain", "loadgen"},
	spRandmat:     {"chain.randmat", "cowichan"},
	spThresh:      {"chain.thresh", "cowichan"},
	spWinnow:      {"chain.winnow", "cowichan"},
	spOuter:       {"chain.outer", "cowichan"},
	spProduct:     {"chain.product", "cowichan"},
}

// span is one traced interval. id is the span's slot + 1; parent is the
// id of the span that caused it (0 for a root, or for a handler-side
// span that is joined to its request by req after the run).
type span struct {
	start, end int64
	req        uint64
	parent     int32
	name       spanName
}

// tracer keeps spans in a buffer allocated before the traced phase, so
// recording never allocates. Requests are sampled by id: a request is
// traced when its id is a multiple of every. Spans past the buffer's
// capacity are counted and dropped.
type tracer struct {
	every   uint64
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(every uint64, capacity int) *tracer {
	if every == 0 {
		every = 1
	}
	return &tracer{every: every, spans: make([]span, capacity)}
}

// on reports whether the request with id req is traced; false on a nil
// tracer, which is how untraced phases run the same code.
func (t *tracer) on(req uint64) bool { return t != nil && req%t.every == 0 }

// alloc reserves a slot for a span whose end is not known yet (a root
// that its children must name as parent). It returns 0 when full.
func (t *tracer) alloc() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	return int32(i + 1)
}

// set fills a slot returned by alloc; a zero id is ignored.
func (t *tracer) set(id int32, name spanName, parent int32, req uint64, start, end int64) {
	if id == 0 {
		return
	}
	t.spans[id-1] = span{start: start, end: end, req: req, parent: parent, name: name}
}

// add records a complete span and returns its id (0 when dropped).
func (t *tracer) add(name spanName, parent int32, req uint64, start, end int64) int32 {
	id := t.alloc()
	t.set(id, name, parent, req, start, end)
	return id
}

// recorded returns the spans recorded so far. Call it only after every
// goroutine that records has finished.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// join completes a finished trace in place and returns it extended by
// the derived spans:
//   - a handler-side exec span without a parent is attached to the
//     parent of the client-side span that sent it (same req);
//   - queue.call_wait spans from Session.Call return to closure start,
//     and remote.request_path spans from send return to proc start;
//   - remote.reply_path spans from proc end to the completion of the
//     loadgen.request root with the same req.
//
// Dropped slots (zero spans) are left alone.
func join(spans []span) []span {
	senders := map[uint64]int32{}
	roots := map[uint64]int32{}
	for i, s := range spans {
		switch s.name {
		case spEnqueue, spAdmit:
			senders[s.req] = int32(i + 1)
		case spRequest:
			roots[s.req] = int32(i + 1)
		}
	}
	n := len(spans)
	for i := 0; i < n; i++ {
		e := spans[i]
		if e.name != spExec || e.end == 0 {
			continue
		}
		sid, ok := senders[e.req]
		if !ok {
			continue
		}
		snd := spans[sid-1]
		if e.parent == 0 {
			spans[i].parent = snd.parent
		}
		derived := spCallWait
		if snd.name == spAdmit {
			derived = spRequestPath
		}
		spans = append(spans, span{start: snd.end, end: e.start, req: e.req, parent: snd.parent, name: derived})
		if rid, ok := roots[e.req]; ok && snd.name == spAdmit {
			spans = append(spans, span{start: e.end, end: spans[rid-1].end, req: e.req, parent: rid, name: spReplyPath})
		}
	}
	return spans
}

// selfTimes charges every span's self time — its duration minus the
// part of it its child spans cover — to the span's layer, and returns
// the totals in nanoseconds by layer.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], int32(i+1))
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if s.end <= s.start {
			continue
		}
		var ivs [][2]int64
		for _, c := range children[int32(i+1)] {
			cs := spans[c-1]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		out[spanInfo[s.name].layer] += float64(s.end - s.start - covered(ivs))
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, lo, hi int64
	for k, iv := range ivs {
		if k == 0 || iv[0] > hi {
			total += hi - lo
			lo, hi = iv[0], iv[1]
			continue
		}
		hi = max(hi, iv[1])
	}
	return total + hi - lo
}

// durations returns the durations in nanoseconds of the spans named n.
func durations(spans []span, n spanName) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == n && s.end != 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes the trace as tab-separated text, one span a line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tlayer\tstart_ns\tend_ns")
	for i, s := range spans {
		if s.end == 0 && s.start == 0 {
			continue
		}
		info := spanInfo[s.name]
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", i+1, s.parent, s.req, info.name, info.layer, s.start, s.end)
	}
	return bw.Flush()
}
