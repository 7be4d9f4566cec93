package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scoopqs/internal/core"
)

// ledger is the in-process workload: client goroutines run short
// separate blocks against shard handlers on a pooled ConfigAll runtime.
const (
	ledgerShards   = 16
	ledgerAccounts = 1024 // per shard
	ledgerInit     = 1000 // initial balance of every account
	ledgerClients  = 8
	ledgerMaxAmt   = 100
	ledgerZipfS    = 1.2 // shard skew: a few hot shards
)

// ledgerOp is the operation a logged call performs on its shard.
type ledgerOp uint8

const (
	opTransfer ledgerOp = iota // intra-shard, refused on overdraft
	opDebit
	opCredit
	opDeposit  // into the shard's escrow
	opWithdraw // from the shard's escrow, under a guard
)

// ledgerShard is the state one handler owns. By the SCOOP discipline it
// is touched only by calls executed on that handler and by queries run
// while the handler is synced on the querying session.
type ledgerShard struct {
	bal      []int64
	escrow   int64
	negative int64  // balance or escrow seen below zero after an operation
	execN    int64  // logged calls executed
	execSum  uint64 // sum of their request ids

	// transfer is safeTransfer; self-tests plant a faulty one.
	transfer func(bal []int64, from, to int, amt int64)
}

// safeTransfer moves amt between two accounts of one shard, refusing an
// overdraft, so money is conserved and no balance goes negative.
func safeTransfer(bal []int64, from, to int, amt int64) {
	if bal[from] >= amt {
		bal[from] -= amt
		bal[to] += amt
	}
}

func (sh *ledgerShard) apply(op ledgerOp, acct, to int, amt int64, req uint64) {
	switch op {
	case opTransfer:
		sh.transfer(sh.bal, acct, to, amt)
	case opDebit:
		sh.bal[acct] -= amt
	case opCredit:
		sh.bal[acct] += amt
	case opDeposit:
		sh.escrow += amt
	case opWithdraw:
		sh.escrow -= amt
	}
	if sh.bal[acct] < 0 || sh.bal[to] < 0 || sh.escrow < 0 {
		sh.negative++
	}
	sh.execN++
	sh.execSum += req
}

// issued counts operations a client logged and the sum of their ids, to
// be matched against what the handlers executed.
type issued struct {
	n   int64
	sum uint64
}

func (is *issued) add(req uint64) {
	is.n++
	is.sum += req
}

func (is *issued) merge(o issued) {
	is.n += o.n
	is.sum += o.sum
}

type ledger struct {
	rt     *core.Runtime
	hs     []*core.Handler
	shards []*ledgerShard
	seed   int64
	round  int64
	issued issued
}

func newLedger(seed int64, xfer func(bal []int64, from, to int, amt int64)) *ledger {
	n := runtime.GOMAXPROCS(0)
	l := &ledger{rt: core.New(core.ConfigAll.WithWorkers(n)), seed: seed}
	for i := 0; i < ledgerShards; i++ {
		sh := &ledgerShard{bal: make([]int64, ledgerAccounts), transfer: xfer}
		for j := range sh.bal {
			sh.bal[j] = ledgerInit
		}
		l.shards = append(l.shards, sh)
		l.hs = append(l.hs, l.rt.NewHandler(fmt.Sprintf("ledger%d", i)))
	}
	return l
}

func (l *ledger) stats() snapshot { return snapshot{core: l.rt.Stats()} }
func (l *ledger) close()          { l.rt.Shutdown() }

// run drives ledgerClients closed-loop clients, each with a depositor
// goroutine of its own that makes the deposits its guarded withdrawals
// wait for.
func (l *ledger) run(p phase) (*tally, error) {
	l.round++
	tallies := make([]tally, ledgerClients)
	clients := make([]*ledgerClient, ledgerClients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	ws := p.windows(now())
	for i := range clients {
		tallies[i].ws = ws
		c := &ledgerClient{
			l:    l,
			cl:   l.rt.NewClient(),
			rng:  rand.New(rand.NewSource(mixSeed(l.seed, l.round, int64(i)))),
			base: uint64(l.round)<<48 | uint64(i)<<40,
			tr:   p.tr,
			t:    &tallies[i],
		}
		c.zipf = rand.NewZipf(c.rng, ledgerZipfS, 1, ledgerShards-1)
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(p.share(ledgerClients), &stop)
		}()
	}
	if p.count == 0 {
		time.Sleep(p.dur)
		stop.Store(true)
	}
	wg.Wait()
	t := &tally{elapsed: time.Since(start), ws: ws}
	for i, c := range clients {
		t.merge(&tallies[i])
		l.issued.merge(c.issued)
	}
	return t, nil
}

// check queries every shard once the load has stopped: money is
// conserved, every escrow is back to zero (each guarded withdrawal
// took exactly what its paired deposit put in), no balance went
// negative, and the handlers executed exactly the calls that were
// logged.
func (l *ledger) check() error {
	cl := l.rt.NewClient()
	var total, escrow, negative, n int64
	var sum uint64
	for i, h := range l.hs {
		sh := l.shards[i]
		cl.Separate(h, func(s *core.Session) {
			core.Query(s, func() int {
				for _, b := range sh.bal {
					total += b
				}
				escrow += sh.escrow
				negative += sh.negative
				n += sh.execN
				sum += sh.execSum
				return 0
			})
		})
	}
	if want := int64(ledgerShards * ledgerAccounts * ledgerInit); total != want {
		return fmt.Errorf("ledger: money not conserved: total %d, want %d", total, want)
	}
	if escrow != 0 {
		return fmt.Errorf("ledger: escrow total %d after every guarded withdrawal, want 0", escrow)
	}
	if negative != 0 {
		return fmt.Errorf("ledger: %d operations left a negative balance", negative)
	}
	if n != l.issued.n || sum != l.issued.sum {
		return fmt.Errorf("ledger: handlers executed %d calls (id sum %d), clients logged %d (id sum %d)",
			n, sum, l.issued.n, l.issued.sum)
	}
	return nil
}

type ledgerDeposit struct {
	shard int
	amt   int64
	req   uint64
}

// ledgerClient is one closed-loop client goroutine.
type ledgerClient struct {
	l      *ledger
	cl     *core.Client
	rng    *rand.Rand
	zipf   *rand.Zipf
	base   uint64 // request ids are base | sequence number
	seq    uint64
	tr     *tracer
	on     bool  // the current block is traced
	root   int32 // the current block's span
	issued issued
	t      *tally
}

func (c *ledgerClient) id() uint64 {
	c.seq++
	return c.base | c.seq
}

// loop runs blocks until stop, or n blocks when n > 0. The block mix:
// 50% two-read query blocks (the second sync is elided), 30%
// intra-shard transfers, 15% cross-shard transfers over two reserved
// shards, 5% guarded withdrawals from a shard's escrow, each paired
// with a deposit of the same amount made by the depositor.
func (c *ledgerClient) loop(n int, stop *atomic.Bool) {
	deps := make(chan ledgerDeposit, 1)
	done := make(chan struct{})
	go c.l.depositor(deps, done)
	defer func() {
		close(deps)
		<-done
	}()
	for k := 0; n > 0 && k < n || n == 0 && !stop.Load(); k++ {
		bid := c.id()
		c.on = c.tr.on(bid)
		c.root = 0
		if c.on {
			c.root = c.tr.alloc()
		}
		mix := c.rng.Intn(100)
		si := int(c.zipf.Uint64())
		a, b := c.rng.Intn(ledgerAccounts), c.rng.Intn(ledgerAccounts)
		amt := int64(c.rng.Intn(ledgerMaxAmt) + 1)
		t0 := now()
		switch {
		case mix < 50:
			c.readTwo(si, a, b, t0)
		case mix < 80:
			c.transfer(si, a, b, amt, t0)
		case mix < 95:
			sj := (si + 1 + c.rng.Intn(ledgerShards-1)) % ledgerShards
			c.crossTransfer(si, sj, a, b, amt, t0)
		default:
			req := c.id()
			c.issued.add(req)
			deps <- ledgerDeposit{shard: si, amt: amt, req: req}
			c.withdraw(si, amt, t0)
			c.t.guarded++
		}
		t1 := now()
		c.t.done(t1, t1-t0)
		if c.on {
			c.tr.set(c.root, spBlock, 0, bid, t0, t1)
		}
	}
}

// entered records the reservation or guard wait of a traced block.
func (c *ledgerClient) entered(name spanName, t0 int64) {
	if c.on {
		c.tr.add(name, c.root, 0, t0, now())
	}
}

// call logs op on s as an asynchronous call carrying a fresh request id.
func (c *ledgerClient) call(s *core.Session, sh *ledgerShard, op ledgerOp, acct, to int, amt int64) {
	req := c.id()
	c.issued.add(req)
	if !c.on {
		s.Call(func() { sh.apply(op, acct, to, amt, req) })
		return
	}
	tr, root := c.tr, c.root
	t0 := now()
	s.Call(func() {
		e0 := now()
		sh.apply(op, acct, to, amt, req)
		tr.add(spExec, root, req, e0, now())
	})
	tr.add(spEnqueue, root, req, t0, now())
}

// query runs f as a synchronous query on s.
func (c *ledgerClient) query(s *core.Session, f func() int64) int64 {
	if !c.on {
		return core.Query(s, f)
	}
	var qs, qe int64
	t0 := now()
	v := core.Query(s, func() int64 {
		qs = now()
		v := f()
		qe = now()
		return v
	})
	t1 := now()
	c.tr.add(spQueryReq, c.root, 0, t0, qs)
	c.tr.add(spExec, c.root, 0, qs, qe)
	c.tr.add(spQueryRep, c.root, 0, qe, t1)
	return v
}

func (c *ledgerClient) readTwo(si, a, b int, t0 int64) {
	sh := c.l.shards[si]
	c.cl.Separate(c.l.hs[si], func(s *core.Session) {
		c.entered(spReserve, t0)
		c.query(s, func() int64 { return sh.bal[a] })
		c.query(s, func() int64 { return sh.bal[b] })
	})
}

// transfer logs an intra-shard transfer and reads the source balance,
// so the block completes only once the transfer has executed.
func (c *ledgerClient) transfer(si, a, b int, amt int64, t0 int64) {
	sh := c.l.shards[si]
	c.cl.Separate(c.l.hs[si], func(s *core.Session) {
		c.entered(spReserve, t0)
		c.call(s, sh, opTransfer, a, b, amt)
		c.query(s, func() int64 { return sh.bal[a] })
	})
}

// crossTransfer moves amt from account a of shard si to account b of
// shard sj under one multi-reservation, if a covers it.
func (c *ledgerClient) crossTransfer(si, sj, a, b int, amt int64, t0 int64) {
	shA, shB := c.l.shards[si], c.l.shards[sj]
	hA := c.l.hs[si]
	c.cl.SeparateMany([]*core.Handler{hA, c.l.hs[sj]}, func(ss []*core.Session) {
		c.entered(spReserve, t0)
		sA, sB := ss[0], ss[1]
		if sA.Handler() != hA {
			sA, sB = sB, sA
		}
		if c.query(sA, func() int64 { return shA.bal[a] }) >= amt {
			c.call(sA, shA, opDebit, a, a, amt)
			c.call(sB, shB, opCredit, b, b, amt)
		}
	})
}

// withdraw waits until shard si's escrow covers amt, then takes it.
func (c *ledgerClient) withdraw(si int, amt int64, t0 int64) {
	sh := c.l.shards[si]
	c.cl.SeparateWhen([]*core.Handler{c.l.hs[si]}, func(ss []*core.Session) bool {
		return core.Query(ss[0], func() int64 { return sh.escrow }) >= amt
	}, func(ss []*core.Session) {
		c.entered(spGuard, t0)
		c.call(ss[0], sh, opWithdraw, 0, 0, amt)
	})
}

// depositor makes the deposits its client sends it, each in a block of
// its own, until deps is closed.
func (l *ledger) depositor(deps <-chan ledgerDeposit, done chan<- struct{}) {
	defer close(done)
	cl := l.rt.NewClient()
	for d := range deps {
		sh := l.shards[d.shard]
		cl.Separate(l.hs[d.shard], func(s *core.Session) {
			s.Call(func() { sh.apply(opDeposit, 0, 0, d.amt, d.req) })
		})
	}
}
