package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram: values below 64 ns are exact,
// larger values up to about 137 s fall into one of 64 sub-buckets per
// power of two, so a reported quantile is within 1/64 (1.6%) of the
// true value. It never allocates after construction, so recording a
// sample does not perturb the allocation counters the benchmark
// reports. A hist is written by one goroutine at a time; merge
// per-goroutine hists after the writers have finished.
type hist struct {
	counts [32 * 64]uint32
	inf    int64 // failed or refused operations: latency counts as infinite
	n      int64
}

const subBits = 6

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int(v>>(e-subBits)) & (1<<subBits - 1)
	return min((e-subBits+1)<<subBits+sub, len(hist{}.counts)-1)
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits + subBits - 1
	sub := int64(i & (1<<subBits - 1))
	return float64((1<<subBits + sub) << (e - subBits)), float64(int64(1) << (e - subBits))
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

// fail records an operation that failed or was refused.
func (h *hist) fail() {
	h.inf++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.inf += o.inf
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (nearest rank), or
// +Inf when the rank falls among failed operations, or 0 when empty.
// Within its bucket the value is interpolated by the rank's position
// among the bucket's samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var seen int64
	for i, c := range h.counts {
		if seen+int64(c) >= rank {
			lo, width := bucketRange(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += int64(c)
	}
	return math.Inf(1)
}

// quantileOf returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 when xs is empty.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}
