package main

import (
	"fmt"
	"runtime"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/cowichan"
	"scoopqs/internal/cowichan/qsimpl"
)

// chainNR is the chain workload's matrix dimension; NW equals it.
const chainNR = 2000

// chain runs the Cowichan chain (randmat, thresh, winnow, outer,
// product) on the Qs implementation, one chain after another.
type chain struct {
	im       *qsimpl.Impl
	p        cowichan.Params
	first    cowichan.Vector // the first chain's result; every later one must equal it
	runs     uint64
	mismatch int
}

func newChain(seed int64, nr int) (*chain, error) {
	p := cowichan.Params{NR: nr, P: 10, NW: nr, Seed: uint32(seed)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := runtime.GOMAXPROCS(0)
	return &chain{im: qsimpl.New(core.ConfigAll.WithWorkers(n), n), p: p}, nil
}

func (c *chain) stats() snapshot { return snapshot{core: c.im.Runtime().Stats()} }
func (c *chain) close()          { c.im.Close() }

// run times each chain, and with a tracer each kernel call; one op is
// one chain.
func (c *chain) run(p phase) (*tally, error) {
	t := &tally{}
	start := time.Now()
	for n := 0; p.count > 0 && n < p.count || p.count == 0 && (n == 0 || time.Since(start) < p.dur); n++ {
		// Every chain starts from a collected heap, so the collector's
		// work inside a chain is its own garbage, not its predecessor's.
		runtime.GC()
		id := c.runs
		c.runs++
		on := p.tr.on(id)
		var root int32
		if on {
			root = p.tr.alloc()
		}
		t0 := now()
		k0 := t0
		kernel := func(name spanName) {
			if on {
				k1 := now()
				p.tr.add(name, root, id, k0, k1)
				k0 = k1
			}
		}
		mat, t1 := c.im.Randmat(c.p)
		kernel(spRandmat)
		mask, t2 := c.im.Thresh(mat, c.p.P)
		kernel(spThresh)
		pts, t3 := c.im.Winnow(mat, mask, c.p.NW)
		kernel(spWinnow)
		om, ov, t4 := c.im.Outer(pts)
		kernel(spOuter)
		res, t5 := c.im.Product(om, ov)
		kernel(spProduct)
		end := now()
		t.done(end, end-t0)
		if on {
			p.tr.set(root, spChain, 0, id, t0, end)
		}
		tm := t1.Add(t2).Add(t3).Add(t4).Add(t5)
		t.comm = append(t.comm, tm.Comm.Seconds())
		t.compute = append(t.compute, tm.Compute.Seconds())
		if c.first == nil {
			c.first = res
		} else if !res.Equal(c.first) {
			c.mismatch++
		}
	}
	t.elapsed = time.Since(start)
	return t, nil
}

// check compares the chain result with the sequential reference. It
// runs after the measured phases, so the reference's time and memory
// are in no metric.
func (c *chain) check() error {
	if c.mismatch != 0 {
		return fmt.Errorf("chain: %d of %d chains differ from the first", c.mismatch, c.runs)
	}
	return checkChain(c.first, cowichan.Chain(cowichan.NewSeq(), c.p).Result)
}

// checkChain reports the first element where got differs from want.
func checkChain(got, want cowichan.Vector) error {
	if len(got) != len(want) {
		return fmt.Errorf("chain: result has %d elements, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("chain: result[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}
