package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// replyResult is one invocation of a CallReply/SyncReply callback.
type replyResult struct {
	v   any
	err error
}

// recorder returns a reply callback that counts its invocations and
// forwards each result on the returned channel. The buffer holds every
// reply a test expects (at most three), so the handler never blocks in
// a reply.
func recorder(calls *atomic.Int64) (func(any, error), chan replyResult) {
	ch := make(chan replyResult, 3)
	return func(v any, err error) {
		calls.Add(1)
		ch <- replyResult{v, err}
	}, ch
}

func awaitReply(t *testing.T, ch chan replyResult) replyResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("reply callback never ran")
		return replyResult{}
	}
}

func TestCallReplyRunsOnceAfterPriorCalls(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			c := rt.NewClient()
			n := 0
			var queryCalls, syncCalls atomic.Int64
			qreply, qch := recorder(&queryCalls)
			sreply, sch := recorder(&syncCalls)
			c.Separate(h, func(s *Session) {
				for i := 0; i < 10; i++ {
					s.Call(func() { n++ })
				}
				s.CallReply(func() any { return n }, qreply)
				for i := 0; i < 5; i++ {
					s.Call(func() { n++ })
				}
				s.SyncReply(sreply)
			})
			if r := awaitReply(t, qch); r.err != nil || r.v.(int) != 10 {
				t.Fatalf("query reply = (%v, %v), want (10, nil): per-session ordering broken", r.v, r.err)
			}
			if r := awaitReply(t, sch); r.err != nil || r.v != nil {
				t.Fatalf("sync reply = (%v, %v), want (nil, nil)", r.v, r.err)
			}
			// The barrier replied after the five later calls ran: a
			// blocking round-trip now observes all fifteen.
			c.Separate(h, func(s *Session) {
				s.Sync()
				if n != 15 {
					t.Errorf("after SyncReply the handler had run %d calls, want 15", n)
				}
			})
			if q, s := queryCalls.Load(), syncCalls.Load(); q != 1 || s != 1 {
				t.Fatalf("reply callbacks ran %d (query) and %d (sync) times, want once each", q, s)
			}
			st := rt.Stats()
			if st.FuturesCreated != 0 {
				t.Fatalf("FuturesCreated = %d, want 0: reply calls mint no future", st.FuturesCreated)
			}
			if st.SyncsExecuted != 2 || st.SyncsPerformed != 1 {
				t.Fatalf("SyncsExecuted = %d, SyncsPerformed = %d; want 2 (one SyncReply, one SyncNow) and 1",
					st.SyncsExecuted, st.SyncsPerformed)
			}
		})
	}
}

func TestCallReplyPanicPoisonsSession(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			c := rt.NewClient()
			var calls atomic.Int64
			reply, ch := recorder(&calls)
			ran := false
			c.Separate(h, func(s *Session) {
				s.CallReply(func() any { panic("kapow") }, reply)
				s.Call(func() { ran = true }) // skipped: the block is poisoned
				s.CallReply(func() any { ran = true; return 1 }, reply)
				s.SyncReply(reply)
			})
			var first *HandlerError
			for i, what := range []string{"panicking query", "later query", "sync barrier"} {
				r := awaitReply(t, ch)
				var he *HandlerError
				if !errors.As(r.err, &he) || fmt.Sprint(he.Value) != "kapow" || r.v != nil {
					t.Fatalf("%s replied (%v, %v), want *HandlerError(kapow)", what, r.v, r.err)
				}
				if i == 0 {
					first = he
				} else if he != first {
					t.Fatalf("%s carries a different error than the session's poison", what)
				}
			}
			// A blocking sync drains the handler: every request above has
			// been dequeued, and nothing else replied.
			c.Separate(h, func(s *Session) { s.Sync() })
			if ran {
				t.Fatal("a request logged after the panic executed on the poisoned session")
			}
			if got := calls.Load(); got != 3 {
				t.Fatalf("reply callbacks ran %d times, want 3", got)
			}
		})
	}
}

// TestCallReplyAnsweredBeforeShutdown checks that Shutdown needs no
// registry for reply calls: handlers drain every accepted request
// before they retire, so each one is answered exactly once.
func TestCallReplyAnsweredBeforeShutdown(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			h := rt.NewHandler("h")
			c := rt.NewClient()
			const blocks, perBlock = 20, 50
			var replies atomic.Int64
			reply := func(any, error) { replies.Add(1) }
			for b := 0; b < blocks; b++ {
				c.Separate(h, func(s *Session) {
					for i := 0; i < perBlock; i++ {
						if i%2 == 0 {
							s.CallReply(func() any { return i }, reply)
						} else {
							s.SyncReply(reply)
						}
					}
				})
			}
			rt.Shutdown()
			if got := replies.Load(); got != blocks*perBlock {
				t.Fatalf("%d replies after Shutdown, want %d", got, blocks*perBlock)
			}
		})
	}
}
