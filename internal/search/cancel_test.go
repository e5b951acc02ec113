package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/plancache"
)

// pollCancelCtx is a context that cancels itself after a fixed number
// of Err() polls. The search only observes cancellation by polling (at
// shard boundaries and every leafCheckInterval leaves), so counting
// polls places the cancellation at an exact, reproducible point inside
// the enumeration — something a timer never could.
type pollCancelCtx struct {
	context.Context
	remaining atomic.Int64
	once      sync.Once
	done      chan struct{}
}

func cancelAfterPolls(n int) *pollCancelCtx {
	c := &pollCancelCtx{Context: context.Background(), done: make(chan struct{})}
	c.remaining.Store(int64(n))
	return c
}

func (c *pollCancelCtx) Done() <-chan struct{} { return c.done }

func (c *pollCancelCtx) Err() error {
	if c.remaining.Add(-1) <= 0 {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

// cancelOp is big enough that a cold search polls the context hundreds
// of times, small enough that the never-cancelled reference stays fast.
func cancelOp() *expr.Expr {
	return expr.MatMul("mm-cancel", 509, 512, 512, dtype.FP16)
}

// TestCancellationConsistency cancels SearchOpCtx at randomized points
// of the enumeration (property-style, seeded) and asserts the
// cancellation contract: the call returns context.Canceled, neither
// cache layer holds any record (partial or otherwise) for the op, the
// singleflight table is empty — and re-running the same op to
// completion on the same searcher yields a Pareto set bit-identical to
// the never-cancelled reference.
func TestCancellationConsistency(t *testing.T) {
	spec := device.IPUMK2().Subset(64)
	e := cancelOp()

	ref := New(spec, testCM(), DefaultConstraints(), core.DefaultConfig())
	want, err := ref.searchOp(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pareto) == 0 {
		t.Fatal("reference search found no plans")
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		dir := t.TempDir()
		s := New(spec, testCM(), DefaultConstraints(), core.DefaultConfig())
		s.SetCache(plancache.New(plancache.Options{Dir: dir}))
		s.Workers = 1 + rng.Intn(4)
		polls := 1 + rng.Intn(200)
		name := fmt.Sprintf("trial%d/w%d/polls%d", trial, s.Workers, polls)

		r, err := s.SearchOpCtx(cancelAfterPolls(polls), e)
		key := s.Key(e)
		cancelled := err != nil
		if cancelled {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", name, err)
			}
			if _, ok := s.Cache().Peek(key); ok {
				t.Errorf("%s: cancelled search left an in-memory cache record", name)
			}
			if entries, err := os.ReadDir(dir); err == nil && len(entries) != 0 {
				t.Errorf("%s: cancelled search left %d files in the disk cache", name, len(entries))
			}
		} else if polls > 1 {
			// the budget outlived the whole search: the result must be
			// the real one and must have been cached
			checkPareto(t, name+"/uncancelled", r, want)
			if _, ok := s.Cache().Peek(key); !ok {
				t.Errorf("%s: completed search not cached", name)
			}
		}
		s.mu.Lock()
		inflight := len(s.inflight)
		s.mu.Unlock()
		if inflight != 0 {
			t.Fatalf("%s: %d singleflight entries leaked", name, inflight)
		}

		// re-run to completion: bit-identical to the never-cancelled
		// reference, and this time the record sticks
		r2, err := s.SearchOpCtx(context.Background(), e)
		if err != nil {
			t.Fatalf("%s: re-run after cancel: %v", name, err)
		}
		checkPareto(t, name+"/rerun", r2, want)
		if _, ok := s.Cache().Peek(key); !ok {
			t.Errorf("%s: re-run result not cached", name)
		}
	}
}

// TestCancelledFlightDoesNotPoisonWaiters deduplicates concurrent
// searches for one op onto a single flight, cancels one caller
// mid-search, and asserts every caller with a live context still
// receives the full, correct result — a cancelled owner must never
// propagate its ctx error to waiters with healthy contexts.
func TestCancelledFlightDoesNotPoisonWaiters(t *testing.T) {
	spec := device.IPUMK2().Subset(64)
	e := cancelOp()

	ref := New(spec, testCM(), DefaultConstraints(), core.DefaultConfig())
	want, err := ref.searchOp(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4; trial++ {
		s := New(spec, testCM(), DefaultConstraints(), core.DefaultConfig())
		s.Workers = 2
		polls := 1 + rng.Intn(200)
		name := fmt.Sprintf("trial%d/polls%d", trial, polls)

		var wg sync.WaitGroup
		doomed := cancelAfterPolls(polls)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := s.SearchOpCtx(doomed, e); err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s: doomed caller: %v", name, err)
				}
			} else {
				checkPareto(t, name+"/doomed-finished", r, want)
			}
		}()
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := s.SearchOpCtx(context.Background(), e)
				if err != nil {
					t.Errorf("%s: healthy waiter got %v", name, err)
					return
				}
				checkPareto(t, name+"/waiter", r, want)
			}()
		}
		wg.Wait()
		s.mu.Lock()
		inflight := len(s.inflight)
		s.mu.Unlock()
		if inflight != 0 {
			t.Fatalf("%s: %d singleflight entries leaked", name, inflight)
		}
	}
}

// pollCountCtx counts Err() polls and never cancels.
type pollCountCtx struct {
	context.Context
	polls int
}

func (c *pollCountCtx) Err() error {
	c.polls++
	return nil
}

// TestScreenedCombosPollCancellation checks the cancellation cadence
// where the last-input screen does all the work: against a frontier
// entry at zero time and the smallest memory the screen gives any leaf
// of the Fop, every leaf is cut before it is finished, and ctx must
// still be polled once per leafCheckInterval screened combos — a Fop
// whose leaves are all screened must not go deaf to cancellation.
func TestScreenedCombosPollCancellation(t *testing.T) {
	e := benchColdOp()
	s := New(device.IPUMK2(), testCM(), DefaultConstraints(), core.DefaultConfig())
	fops := s.enumerateFops(e)
	tensors := e.Tensors()
	w := newSearchWorker(s, e, s.CM.Resolve(e.Name, e.Kind), nil)
	ctx := &pollCountCtx{Context: context.Background()}
	w.ctx = ctx
	ps := core.NewPlanSketch(e, s.Cfg)
	screened, finished := 0, 0
	for _, fop := range fops {
		if !ps.Begin(fop) {
			continue
		}
		minMem := int64(math.MaxInt64)
		for _, a := range s.ftSet(tensors[0], ps.ShareP(0)).combos {
			if !ps.Fix(a) {
				continue
			}
			ps.BeginScreen(s.CM.Spec, nil, 0)
			for _, b := range s.ftSet(tensors[1], ps.ShareP(1)).combos {
				minMem = min(minMem, first(ps.Screen(b)))
			}
			ps.Unfix()
		}
		pf := &pruneFrontier{}
		pf.add(Candidate{Est: core.Estimate{MemPerCore: minMem}})
		var sh fopShard
		w.processFop(fop, &sh, pf)
		screened += sh.screened
		finished += sh.finished
	}
	t.Logf("%d Fops: %d combos screened, %d finished, %d ctx polls", len(fops), screened, finished, ctx.polls)
	if finished != 0 {
		t.Fatalf("%d leaves finished: the screen no longer cuts every leaf", finished)
	}
	if screened < 4*leafCheckInterval {
		t.Fatalf("only %d combos screened — the cadence is undertested", screened)
	}
	if ctx.polls < screened/leafCheckInterval {
		t.Fatalf("ctx polled %d times over %d screened combos, want ≥ one per %d",
			ctx.polls, screened, leafCheckInterval)
	}
}

func first(mem int64, _ float64) int64 { return mem }

func checkPareto(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Pareto) != len(want.Pareto) {
		t.Fatalf("%s: pareto size = %d, want %d", name, len(got.Pareto), len(want.Pareto))
	}
	for i := range want.Pareto {
		if !sameCandidate(&got.Pareto[i], &want.Pareto[i]) {
			t.Fatalf("%s: pareto[%d] differs:\n got Fop=%v est=%+v\nwant Fop=%v est=%+v",
				name, i, got.Pareto[i].Plan.Fop, got.Pareto[i].Est,
				want.Pareto[i].Plan.Fop, want.Pareto[i].Est)
		}
	}
}
