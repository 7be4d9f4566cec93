package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/remote"
)

// The bank service: accounts sharded over handlers of a pooled
// ConfigAll runtime, served over one loopback TCP connection. bank
// uses its bytes procedures, bank-open its typed int64 ones. Every
// request carries its request id: in the payload (bytes) or as the
// last int64 argument (typed).
//
//	bytes read  [acct u64][req u64]                 -> [balance u64]
//	bytes xfer  [from u64][to u64][amt u64][req u64]
//	typed deposit(acct, amt, req), read(acct, req) -> balance
//	typed total(), execn(), execsum(), reads()      -> shard tallies for the check
const (
	bankShards   = 64
	bankAccounts = 1 << 14 // per shard: about 1M accounts in all
	bankInit     = 100
	bankMaxAmt   = 50
)

func shardName(i int) string { return "shard" + strconv.Itoa(i) }

// bankShard is the state one shard handler owns.
type bankShard struct {
	bal     []int64
	reads   int64  // reads executed
	execN   int64  // mutating requests executed
	execSum uint64 // sum of their request ids
}

type bankService struct {
	rt     *core.Runtime
	srv    *remote.Server
	mux    *remote.Mux
	served chan struct{}
	tr     atomic.Pointer[tracer] // set while a traced phase runs

	nShards   int
	nAccounts int // per shard
}

// newBankService brings up the service and dials it. xfer is the
// transfer the bytes xfer procedure applies; self-tests plant a faulty
// one.
func newBankService(shards, accounts int, xfer func(bal []int64, from, to int, amt int64)) (*bankService, error) {
	n := runtime.GOMAXPROCS(0)
	b := &bankService{rt: core.New(core.ConfigAll.WithWorkers(n)), nShards: shards, nAccounts: accounts}
	b.srv = remote.NewServer(b.rt)
	for i := 0; i < shards; i++ {
		sh := &bankShard{bal: make([]int64, accounts)}
		for j := range sh.bal {
			sh.bal[j] = bankInit
		}
		h := b.rt.NewHandler(shardName(i))
		b.srv.Expose(shardName(i), h, map[string]remote.Proc{
			"deposit": func(a []int64) int64 {
				defer b.exec(uint64(a[2]))()
				sh.bal[a[0]] += a[1]
				sh.execN++
				sh.execSum += uint64(a[2])
				return 0
			},
			"read": func(a []int64) int64 {
				defer b.exec(uint64(a[1]))()
				sh.reads++
				return sh.bal[a[0]]
			},
			"total": func([]int64) int64 {
				var t int64
				for _, v := range sh.bal {
					t += v
				}
				return t
			},
			"execn":   func([]int64) int64 { return sh.execN },
			"execsum": func([]int64) int64 { return int64(sh.execSum) },
			"reads":   func([]int64) int64 { return sh.reads },
		})
		b.srv.ExposeBytes(shardName(i), h, map[string]remote.BytesProc{
			// The reply is allocated per read: it must stay valid until
			// the runtime encodes it.
			"read": func(p []byte) []byte {
				req := binary.LittleEndian.Uint64(p[8:])
				defer b.exec(req)()
				sh.reads++
				out := make([]byte, 8)
				binary.LittleEndian.PutUint64(out, uint64(sh.bal[binary.LittleEndian.Uint64(p)]))
				return out
			},
			"xfer": func(p []byte) []byte {
				req := binary.LittleEndian.Uint64(p[24:])
				defer b.exec(req)()
				xfer(sh.bal, int(binary.LittleEndian.Uint64(p)), int(binary.LittleEndian.Uint64(p[8:])),
					int64(binary.LittleEndian.Uint64(p[16:])))
				sh.execN++
				sh.execSum += req
				return nil
			},
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.rt.Shutdown()
		return nil, fmt.Errorf("bank: listen: %w", err)
	}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.srv.Serve(ln)
	}()
	if b.mux, err = remote.DialMux("tcp", ln.Addr().String()); err != nil {
		b.close()
		return nil, fmt.Errorf("bank: dial: %w", err)
	}
	return b, nil
}

var noop = func() {}

// exec starts the server-side span of request req when it is traced;
// the returned func ends it.
func (b *bankService) exec(req uint64) func() {
	tr := b.tr.Load()
	if !tr.on(req) {
		return noop
	}
	t0 := now()
	return func() { tr.add(spExec, 0, req, t0, now()) }
}

func (b *bankService) stats() snapshot {
	return snapshot{core: b.rt.Stats(), mux: b.mux.Stats(), srv: b.srv.Stats(), remote: true}
}

func (b *bankService) close() {
	if b.mux != nil {
		b.mux.Close()
	}
	b.srv.Close()
	<-b.served
	b.rt.Shutdown()
}

// check sums every shard over the wire: the total must equal the
// initial money plus deposits, and the shards must have executed
// exactly the reads and mutating requests that were issued.
func (b *bankService) check(deposited int64, muts issued, reads int64) error {
	rs := b.mux.NewSession()
	defer rs.Close()
	var total, n, gotReads int64
	var sum uint64
	for i := 0; i < b.nShards; i++ {
		err := rs.Separate(shardName(i), func(s *remote.Session) error {
			for _, q := range []struct {
				fn  string
				add func(int64)
			}{
				{"total", func(v int64) { total += v }},
				{"execn", func(v int64) { n += v }},
				{"execsum", func(v int64) { sum += uint64(v) }},
				{"reads", func(v int64) { gotReads += v }},
			} {
				v, err := s.Query(q.fn)
				if err != nil {
					return err
				}
				q.add(v)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("bank: shard %d tally: %w", i, err)
		}
	}
	if want := int64(b.nShards*b.nAccounts*bankInit) + deposited; total != want {
		return fmt.Errorf("bank: money not conserved over the wire: total %d, want %d", total, want)
	}
	if n != muts.n || sum != muts.sum {
		return fmt.Errorf("bank: server executed %d mutating requests (id sum %d), client issued %d (id sum %d)",
			n, sum, muts.n, muts.sum)
	}
	if gotReads != reads {
		return fmt.Errorf("bank: server executed %d reads, client completed %d", gotReads, reads)
	}
	return nil
}

// bank is the closed-loop remote workload: bankSessions sessions on the
// one connection each run blocks of bankBlock operations on a random
// shard — 4:1 pipelined reads to transfers, at most bankInflight reads
// in flight per session — ending each block with a Sync. The pipeline
// is deep enough to keep the connection busy between blocks.
const (
	bankSessions = 8
	bankBlock    = 64
	bankInflight = 64
)

type bank struct {
	*bankService
	seed  int64
	round int64
	muts  issued
	reads int64
}

func (b *bank) check() error { return b.bankService.check(0, b.muts, b.reads) }

// bankSession is one session's record: t is written by the session's
// goroutine (transfers), rd by read completions under mu. A completion
// runs on the mux reader, or on the session's goroutine when the reply
// arrived before the callback was set.
type bankSession struct {
	t     tally
	mu    sync.Mutex
	rd    tally
	muts  issued
	reads int64 // completed well-formed reads
	err   error
}

func (b *bank) run(p phase) (*tally, error) {
	b.round++
	if p.tr != nil {
		b.tr.Store(p.tr)
		defer b.tr.Store(nil)
	}
	ss := make([]bankSession, bankSessions)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	ws := p.windows(now())
	for i := range ss {
		ss[i].t.ws, ss[i].rd.ws = ws, ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss[i].err = b.session(&ss[i], p, p.share(bankSessions), &stop,
				uint64(b.round)<<48|uint64(i)<<40, mixSeed(b.seed, b.round, int64(i)))
		}()
	}
	if p.count == 0 {
		time.Sleep(p.dur)
		stop.Store(true)
	}
	wg.Wait()
	t := &tally{elapsed: time.Since(start), ws: ws}
	for i := range ss {
		s := &ss[i]
		if s.err != nil {
			return nil, s.err
		}
		t.merge(&s.t)
		t.merge(&s.rd)
		b.muts.merge(s.muts)
		b.reads += s.reads
	}
	return t, nil
}

// session runs blocks until stop, or n blocks when n > 0. Read latency
// is timed from the call to the future's completion on the mux reader;
// the session drains its in-flight reads at every block end, so the
// completions' writes to the tally happen before the session returns.
func (b *bank) session(bs *bankSession, p phase, n int, stop *atomic.Bool, base uint64, seed int64) error {
	rs := b.mux.NewSession()
	defer rs.Close()
	rng := rand.New(rand.NewSource(seed))
	sem := make(chan struct{}, bankInflight)
	tr := p.tr
	var buf [32]byte
	var seq uint64
	for k := 0; n > 0 && k < n || n == 0 && !stop.Load(); k++ {
		err := rs.Separate(shardName(rng.Intn(b.nShards)), func(s *remote.Session) error {
			for j := 0; j < bankBlock; j++ {
				seq++
				req := base | seq
				on := tr.on(req)
				acct := uint64(rng.Intn(b.nAccounts))
				if rng.Intn(5) == 0 {
					binary.LittleEndian.PutUint64(buf[0:], acct)
					binary.LittleEndian.PutUint64(buf[8:], uint64(rng.Intn(b.nAccounts)))
					binary.LittleEndian.PutUint64(buf[16:], uint64(rng.Intn(bankMaxAmt)+1))
					binary.LittleEndian.PutUint64(buf[24:], req)
					t0 := now()
					if err := s.CallBytes("xfer", buf[:32]); err != nil {
						return err
					}
					t1 := now()
					if on {
						tr.add(spAdmit, 0, req, t0, t1)
					}
					bs.muts.add(req)
					bs.t.count(t1)
					continue
				}
				binary.LittleEndian.PutUint64(buf[0:], acct)
				binary.LittleEndian.PutUint64(buf[8:], req)
				sem <- struct{}{}
				var root int32
				if on {
					root = tr.alloc()
				}
				t0 := now()
				f, err := s.QueryBytesAsync("read", buf[:16])
				if err != nil {
					<-sem
					return err
				}
				if on {
					tr.add(spAdmit, root, req, t0, now())
				}
				f.OnComplete(func(v any, err error) {
					t1 := now()
					p, ok := v.([]byte)
					ok = ok && err == nil && len(p) == 8
					if ok {
						remote.Release(p)
					}
					bs.mu.Lock()
					if ok {
						bs.rd.done(t1, t1-t0)
						bs.reads++
					} else {
						bs.rd.fail(t1)
					}
					bs.mu.Unlock()
					if on {
						tr.set(root, spRequest, 0, req, t0, t1)
					}
					<-sem
				})
			}
			return s.Sync()
		})
		for j := 0; j < bankInflight; j++ {
			sem <- struct{}{}
		}
		for j := 0; j < bankInflight; j++ {
			<-sem
		}
		if err != nil {
			return fmt.Errorf("bank: block: %w", err)
		}
	}
	return nil
}

// bankOpen is the open-loop remote workload: requests are due at a
// fixed rate whether or not earlier ones have completed; each is one
// short block on one shard, a typed deposit Call plus a typed read
// Query, timed from its due time. bankOpenWorkers goroutines, each with
// its own session, take the requests in due order.
const (
	bankOpenRate    = 5000 // requests per second offered
	bankOpenWorkers = 32
)

type bankOpen struct {
	*bankService
	seed      int64
	round     int64
	deposits  issued
	deposited int64
	reads     int64
}

func (b *bankOpen) check() error { return b.bankService.check(b.deposited, b.deposits, b.reads) }

type openWorker struct {
	t         tally
	deposits  issued
	deposited int64
	reads     int64
	err       error
}

func (b *bankOpen) run(p phase) (*tally, error) {
	b.round++
	if p.tr != nil {
		b.tr.Store(p.tr)
		defer b.tr.Store(nil)
	}
	period := int64(time.Second) / bankOpenRate
	begin := now() + int64(time.Millisecond)
	// One due request may wait per worker; past that the pacer blocks
	// and the lag it records shows the backlog.
	due := make(chan int64, bankOpenWorkers)
	ws := make([]openWorker, bankOpenWorkers)
	win := p.windows(begin)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ws {
		ws[i].t.ws = win
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &ws[i]
			rs := b.mux.NewSession()
			defer rs.Close()
			for k := range due {
				if w.err == nil {
					w.err = b.request(w, rs, p.tr, k, begin+k*period)
				}
			}
		}()
	}
	pace(due, begin, period, p)
	wg.Wait()
	t := &tally{elapsed: time.Since(start), ws: win}
	for i := range ws {
		w := &ws[i]
		if w.err != nil {
			return nil, w.err
		}
		t.merge(&w.t)
		b.deposits.merge(w.deposits)
		b.deposited += w.deposited
		b.reads += w.reads
	}
	return t, nil
}

// pace hands out request numbers k at their due times, begin + k*period,
// then closes due. It sleeps with nanosleep on a locked thread with the
// thread's timer slack cut to 1 ns: the Go timer behind time.Sleep
// wakes about half a millisecond late on average, which would swamp
// the latency being measured. After each hand-off it yields, so the
// worker runs at once instead of waiting for the P the sleep holds.
func pace(due chan<- int64, begin, period int64, p phase) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(due)
	// Best effort: the default slack only adds lag. Zero restores the
	// default before the thread goes back to the runtime.
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	end := begin + int64(p.dur)
	for k := int64(0); ; k++ {
		at := begin + k*period
		if p.count > 0 && k >= int64(p.count) || p.count == 0 && at >= end {
			return
		}
		for d := at - now(); d > 0; d = at - now() {
			ts := syscall.NsecToTimespec(d)
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		due <- k
		runtime.Gosched()
	}
}

// request sends request k of the current round, due at due. Its inputs
// depend only on the seed, the round and k, not on which worker sends
// it.
func (b *bankOpen) request(w *openWorker, rs *remote.RemoteSession, tr *tracer, k, due int64) error {
	sent := now()
	w.t.lag.record(sent - due)
	r := uint64(mixSeed(b.seed, b.round, k))
	shard := int(r % uint64(b.nShards))
	acct := int64(r / uint64(b.nShards) % uint64(b.nAccounts))
	dep := uint64(b.round)<<48 | uint64(2*k)
	rd := dep + 1
	on := tr.on(rd)
	var root int32
	if on {
		root = tr.alloc()
		tr.add(spLag, root, rd, due, sent)
	}
	var bal int64
	err := rs.Separate(shardName(shard), func(s *remote.Session) error {
		t0 := now()
		if err := s.Call("deposit", acct, 1, int64(dep)); err != nil {
			return err
		}
		t1 := now()
		f, err := s.QueryAsync("read", acct, int64(rd))
		if err != nil {
			return err
		}
		if on {
			tr.add(spAdmit, root, dep, t0, t1)
			tr.add(spAdmit, root, rd, t1, now())
		}
		bal, err = rs.Await(f)
		return err
	})
	done := now()
	if on {
		tr.set(root, spRequest, 0, rd, due, done)
	}
	if err != nil {
		w.t.fail(done)
		return fmt.Errorf("bank-open: request %d: %w", k, err)
	}
	if bal < bankInit+1 {
		return fmt.Errorf("bank-open: read balance %d after a deposit, want at least %d", bal, bankInit+1)
	}
	w.t.done(done, done-due)
	w.deposits.add(dep)
	w.deposited++
	w.reads++
	return nil
}
