package sema

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// acquire is AcquireWait without the queue time.
func acquire(s *Sem, ctx context.Context, n int) error {
	_, err := s.AcquireWait(ctx, n)
	return err
}

func TestTryAcquireRespectsCapacity(t *testing.T) {
	s := New(2)
	if !s.TryAcquire(1) || !s.TryAcquire(1) {
		t.Fatal("two unit acquires must fit in capacity 2")
	}
	if s.TryAcquire(1) {
		t.Fatal("third acquire must fail")
	}
	s.Release(1)
	if !s.TryAcquire(1) {
		t.Fatal("acquire after release must succeed")
	}
	s.Release(2)
	if got := s.InUse(); got != 0 {
		t.Fatalf("InUse = %d after releasing everything", got)
	}
}

func TestWeightedAcquire(t *testing.T) {
	s := New(3)
	if s.TryAcquire(4) {
		t.Fatal("over-capacity weighted acquire must fail")
	}
	if !s.TryAcquire(3) {
		t.Fatal("exact-capacity weighted acquire must succeed")
	}
	if s.TryAcquire(1) {
		t.Fatal("no slots left")
	}
	s.Release(3)
}

func TestZeroAndNil(t *testing.T) {
	s := New(-5)
	if s.Cap() != 0 || s.TryAcquire(1) {
		t.Fatal("negative capacity must clamp to zero")
	}
	var nilSem *Sem
	if nilSem.TryAcquire(1) || nilSem.Cap() != 0 || nilSem.Peak() != 0 {
		t.Fatal("nil Sem must behave as a zero-capacity budget")
	}
	nilSem.enter()
	nilSem.exit()
	nilSem.Release(1)
}

func TestPeakTracksConcurrentWorkers(t *testing.T) {
	s := New(4)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.enter()
			<-gate
			s.exit()
		}()
	}
	// wait until all three are inside
	for s.Peak() < 3 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := s.Peak(); got != 3 {
		t.Fatalf("Peak = %d, want 3", got)
	}
}

func TestConcurrentAcquireNeverOversubscribes(t *testing.T) {
	const cap = 5
	s := New(cap)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if s.TryAcquire(1) {
					if n := s.InUse(); n > cap {
						t.Errorf("InUse = %d exceeds capacity %d", n, cap)
					}
					s.Release(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := s.InUse(); got != 0 {
		t.Fatalf("InUse = %d after all releases", got)
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	s := NewShared(1, 4)
	if err := acquire(s, context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- acquire(s, context.Background(), 1) }()
	// the second acquire must be queued, not failed
	for s.Waiting() == 0 {
		runtime.Gosched()
	}
	select {
	case err := <-got:
		t.Fatalf("acquire returned %v before a slot was free", err)
	default:
	}
	s.Release(1)
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	s.Release(1)
	if s.InUse() != 0 || s.Waiting() != 0 {
		t.Fatalf("InUse=%d Waiting=%d after releasing everything", s.InUse(), s.Waiting())
	}
}

func TestAcquireWaitMeasuresQueueTime(t *testing.T) {
	s := NewShared(1, 4)
	// the fast path never touches the clock: zero wait, by definition
	w, err := s.AcquireWait(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 {
		t.Fatalf("uncontended AcquireWait reported %v, want 0", w)
	}

	type res struct {
		wait time.Duration
		err  error
	}
	got := make(chan res, 1)
	go func() {
		w, err := s.AcquireWait(context.Background(), 1)
		got <- res{w, err}
	}()
	for s.Waiting() == 0 {
		runtime.Gosched()
	}
	const hold = 20 * time.Millisecond
	time.Sleep(hold)
	s.Release(1)
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.wait < hold {
		t.Fatalf("queued AcquireWait reported %v, want at least the %v hold", r.wait, hold)
	}
	s.Release(1)

	// cancellation while queued still reports the time spent waiting
	if err := acquire(s, context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		w, err := s.AcquireWait(ctx, 1)
		got <- res{w, err}
	}()
	for s.Waiting() == 0 {
		runtime.Gosched()
	}
	time.Sleep(5 * time.Millisecond)
	cancel()
	r = <-got
	if r.err == nil {
		t.Fatal("cancelled AcquireWait returned no error")
	}
	if r.wait <= 0 {
		t.Fatalf("cancelled AcquireWait reported %v queue time, want > 0", r.wait)
	}
	s.Release(1)
}

func TestAcquireSaturatesBeyondQueueBound(t *testing.T) {
	s := NewShared(1, 2)
	if err := acquire(s, context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- acquire(s, context.Background(), 1) }()
	}
	for s.Waiting() < 2 {
		runtime.Gosched()
	}
	// the queue is full: the next acquire must shed, not wait
	if err := acquire(s, context.Background(), 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("acquire on a full queue: %v, want ErrSaturated", err)
	}
	s.Release(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s.Release(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s.Release(1)
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d after draining", s.InUse())
	}
}

func TestAcquireHonorsContextCancellation(t *testing.T) {
	s := NewShared(1, 4)
	if err := acquire(s, context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- acquire(s, ctx, 1) }()
	for s.Waiting() == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v, want context.Canceled", err)
	}
	if s.Waiting() != 0 {
		t.Fatalf("cancelled waiter still queued: Waiting = %d", s.Waiting())
	}
	// the held slot is unaffected; the next acquire gets it after release
	s.Release(1)
	if err := acquire(s, context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	s.Release(1)
	// an already-dead context never touches the queue
	if err := acquire(s, ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire with dead context: %v", err)
	}
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", s.InUse())
	}
}

func TestAcquireFIFOOrder(t *testing.T) {
	s := NewShared(1, 8)
	if err := acquire(s, context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	order := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		go func() {
			if err := acquire(s, context.Background(), 1); err != nil {
				t.Error(err)
				return
			}
			order <- i
			s.Release(1)
		}()
		// serialize enqueue so the queue order is the spawn order
		for s.Waiting() <= i {
			runtime.Gosched()
		}
	}
	s.Release(1)
	for want := 0; want < waiters; want++ {
		if got := <-order; got != want {
			t.Fatalf("waiter %d granted before waiter %d", got, want)
		}
	}
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d after draining", s.InUse())
	}
}

func TestTryAcquireYieldsToQueuedWaiters(t *testing.T) {
	s := NewShared(2, 4)
	if err := acquire(s, context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- acquire(s, context.Background(), 1) }()
	for s.Waiting() == 0 {
		runtime.Gosched()
	}
	s.Release(1)
	// a slot became free but the waiter... was granted it immediately;
	// regardless, an opportunistic helper must never jump a queue
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	go func() { got <- acquire(s, context.Background(), 2) }()
	for s.Waiting() == 0 {
		runtime.Gosched()
	}
	if s.TryAcquire(1) {
		t.Fatal("TryAcquire succeeded past a queued waiter")
	}
	s.Release(2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	s.Release(2)
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d after draining", s.InUse())
	}
}

func TestSharedClampsAndOverweight(t *testing.T) {
	s := NewShared(0, -3)
	if s.Cap() != 1 || !s.shared {
		t.Fatalf("Cap=%d shared=%t, want a 1-slot shared budget", s.Cap(), s.shared)
	}
	// zero queue: an occupied budget sheds immediately
	if err := acquire(s, context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := acquire(s, context.Background(), 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("acquire with maxQueue=0: %v, want ErrSaturated", err)
	}
	if err := acquire(s, context.Background(), 2); err == nil || errors.Is(err, ErrSaturated) {
		t.Fatalf("over-capacity acquire: %v, want a distinct error", err)
	}
	s.Release(1)
	var nilSem *Sem
	if err := acquire(nilSem, context.Background(), 1); err != nil {
		t.Fatalf("nil Sem AcquireWait: %v, want nil (no budget to respect)", err)
	}
	if nilSem.Waiting() != 0 {
		t.Fatal("nil Sem must report an empty queue")
	}
}

func TestCancelledLargeWaiterWakesSmallerOnes(t *testing.T) {
	s := NewShared(4, 8)
	if err := acquire(s, context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// a 4-slot waiter heads the queue (1+4 > 4) and blocks a 1-slot
	// waiter behind it
	bigCtx, cancelBig := context.WithCancel(context.Background())
	bigDone := make(chan error, 1)
	go func() { bigDone <- acquire(s, bigCtx, 4) }()
	for s.Waiting() == 0 {
		runtime.Gosched()
	}
	smallDone := make(chan error, 1)
	go func() { smallDone <- acquire(s, context.Background(), 1) }()
	for s.Waiting() < 2 {
		runtime.Gosched()
	}
	// cancelling the head must hand the free slots to the small waiter
	// immediately — not strand it until the next Release
	cancelBig()
	if err := <-bigDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled head waiter: %v", err)
	}
	if err := <-smallDone; err != nil {
		t.Fatalf("small waiter after head cancellation: %v", err)
	}
	s.Release(2)
	if s.InUse() != 0 || s.Waiting() != 0 {
		t.Fatalf("InUse=%d Waiting=%d after draining", s.InUse(), s.Waiting())
	}
}

// TestCredit pins the prepaid helper allowance: exactly n takes
// succeed, put returns capacity, nil credits refuse safely, and the
// context plumbing round-trips.
func TestCredit(t *testing.T) {
	c := newCredit(2)
	if !c.take() || !c.take() {
		t.Fatal("a 2-credit must grant two takes")
	}
	if c.take() {
		t.Fatal("an exhausted credit granted a take")
	}
	c.put()
	if !c.take() {
		t.Fatal("put did not restore capacity")
	}

	var nilCredit *credit
	if nilCredit.take() {
		t.Fatal("nil credit granted a take")
	}
	nilCredit.put() // must not panic

	if newCredit(-3).take() {
		t.Fatal("negative-capacity credit granted a take")
	}

	ctx := withCredit(context.Background(), c)
	if creditFrom(ctx) != c {
		t.Fatal("credit lost through the context")
	}
	if creditFrom(context.Background()) != nil {
		t.Fatal("bare context produced a credit")
	}
}

// TestCreditConcurrent hammers take/put from many goroutines: the
// number of concurrently outstanding takes must never exceed the
// capacity.
func TestCreditConcurrent(t *testing.T) {
	const capacity = 3
	c := newCredit(capacity)
	var out, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if !c.take() {
					runtime.Gosched()
					continue
				}
				n := out.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				runtime.Gosched() // hold the credit across a reschedule
				out.Add(-1)
				c.put()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > capacity {
		t.Fatalf("outstanding credit peak %d exceeds capacity %d", p, capacity)
	}
	for i := 0; i < capacity; i++ {
		if !c.take() {
			t.Fatalf("credit slot %d lost after the concurrent take/put hammering", i)
		}
	}
	if c.take() {
		t.Fatal("credit gained capacity after the concurrent take/put hammering")
	}
}

// valueCounter is a context that counts Value lookups.
type valueCounter struct {
	context.Context
	n int
}

func (c *valueCounter) Value(key any) any {
	c.n++
	return c.Context.Value(key)
}

// TestSpreadPaysHelpersFromCreditThenSlots pins Spread's helper budget:
// it starts at most credit + free slots helpers, spends the credit
// before touching the pool, and gives every slot and credit back.
func TestSpreadPaysHelpersFromCreditThenSlots(t *testing.T) {
	for _, tc := range []struct {
		name                string
		slots, credit, n    int
		wantHelpers, wantIn int // helpers started; pool slots they hold
	}{
		{"credit covers all", 5, 2, 3, 2, 0},
		{"credit then slots", 2, 3, 10, 5, 2},
		{"no credit", 2, 0, 10, 2, 2},
		{"n caps helpers", 4, 1, 3, 2, 1},
		{"nothing free", 0, 0, 4, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.slots)
			c := newCredit(tc.credit)
			ctx := withCredit(context.Background(), c)
			gate := make(chan struct{})
			var started atomic.Int64
			done := make(chan struct{})
			go func() {
				// every copy of work blocks on gate, so the budget can be
				// read while all of Spread's workers are live
				s.Spread(ctx, tc.n, func() {
					started.Add(1)
					<-gate
				})
				close(done)
			}()
			want := int64(tc.wantHelpers + 1)
			for started.Load() < want {
				runtime.Gosched()
			}
			if in := s.InUse(); in != tc.wantIn {
				t.Errorf("helpers hold %d pool slots, want %d", in, tc.wantIn)
			}
			if left, want := c.n.Load(), int64(tc.credit-min(tc.credit, tc.wantHelpers)); left != want {
				t.Errorf("%d credits left, want %d: credit is spent before pool slots", left, want)
			}
			close(gate)
			<-done
			if got := started.Load(); got != want {
				t.Fatalf("work ran %d times, want %d (caller + %d helpers)", got, want, tc.wantHelpers)
			}
			if s.InUse() != 0 {
				t.Fatalf("%d slots leaked", s.InUse())
			}
			if left := c.n.Load(); left != int64(tc.credit) {
				t.Fatalf("%d credits after Spread, want all %d back", left, tc.credit)
			}
		})
	}
}

// TestSpreadNestedPeak nests Spread the way a model compile nests its
// operator searches: every outer item spreads again over the same
// budget. Live workers (the admitted caller plus every helper at any
// depth) must never exceed Cap()+1, and every slot comes back.
func TestSpreadNestedPeak(t *testing.T) {
	s := New(3)
	ctx, leave, _, _, err := s.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var outer, inner atomic.Int64
	s.Spread(ctx, 4, func() {
		for outer.Add(1) <= 8 {
			var items atomic.Int64
			s.Spread(ctx, 4, func() {
				for items.Add(1) <= 16 {
					inner.Add(1)
					runtime.Gosched()
				}
			})
		}
	})
	leave()
	if got := inner.Load(); got != 8*16 {
		t.Fatalf("inner items done %d times, want %d", got, 8*16)
	}
	if peak := s.Peak(); peak > s.Cap()+1 {
		t.Fatalf("peak live workers %d exceeds Cap()+1 = %d", peak, s.Cap()+1)
	}
	if s.InUse() != 0 {
		t.Fatalf("%d slots leaked", s.InUse())
	}
}

// TestSpreadSingleIsFree pins the sequential path every Workers=1
// compile takes: Spread with n ≤ 1 runs work once on the caller, never
// reads the context's credit and allocates nothing.
func TestSpreadSingleIsFree(t *testing.T) {
	s := New(4)
	ctx := &valueCounter{Context: withCredit(context.Background(), newCredit(2))}
	calls := 0
	work := func() { calls++ }
	allocs := testing.AllocsPerRun(100, func() {
		s.Spread(ctx, 1, work)
		s.Spread(ctx, 0, work)
	})
	if allocs != 0 {
		t.Fatalf("Spread(n ≤ 1) allocated %.1f times per call pair", allocs)
	}
	if ctx.n != 0 {
		t.Fatalf("Spread(n ≤ 1) read the context %d times", ctx.n)
	}
	if calls != 2*101 { // AllocsPerRun adds one warm-up run
		t.Fatalf("work ran %d times, want %d", calls, 2*101)
	}
	if s.InUse() != 0 || s.Peak() != 0 {
		t.Fatalf("InUse=%d Peak=%d, want no slots and no helpers", s.InUse(), s.Peak())
	}
}

// TestAdmitShared pins admission on a shared budget: weights clamp to
// Cap, the caller holds the granted slots and is a live worker until
// leave, the slots beyond its own ride the context as credit, and
// weight 1 carries none.
func TestAdmitShared(t *testing.T) {
	s := NewShared(3, 4)
	ctx, leave, granted, wait, err := s.Admit(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if granted != 3 || wait != 0 {
		t.Fatalf("granted=%d wait=%v, want the clamp to Cap()=3 without queueing", granted, wait)
	}
	if s.InUse() != 3 || s.Peak() != 1 {
		t.Fatalf("InUse=%d Peak=%d, want 3 slots held by one live worker", s.InUse(), s.Peak())
	}
	c := creditFrom(ctx)
	if !c.take() || !c.take() || c.take() {
		t.Fatal("a 3-slot admission must carry exactly 2 credits")
	}
	c.put()
	c.put()
	leave()
	if s.InUse() != 0 {
		t.Fatalf("InUse=%d after leave", s.InUse())
	}

	ctx, leave, granted, _, err = s.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if granted != 1 || creditFrom(ctx) != nil {
		t.Fatalf("weight 1: granted=%d credit=%v, want 1 slot and no credit", granted, creditFrom(ctx))
	}
	leave()
	if s.InUse() != 0 {
		t.Fatalf("InUse=%d after leave", s.InUse())
	}
}

// TestAdmitProbeFastPath pins weight ≤ 0 on a shared budget: no slot,
// no Peak bracket, and no ErrSaturated even when the budget is full
// and its queue has no room.
func TestAdmitProbeFastPath(t *testing.T) {
	s := NewShared(1, 0)
	if !s.TryAcquire(1) {
		t.Fatal("fresh budget refused its only slot")
	}
	for _, w := range []int{0, -2} {
		bg := context.Background()
		ctx, leave, granted, wait, err := s.Admit(bg, w)
		if err != nil {
			t.Fatalf("weight %d: %v, want the fast path", w, err)
		}
		if ctx != bg || granted != 0 || wait != 0 {
			t.Fatalf("weight %d: ctx changed=%t granted=%d wait=%v", w, ctx != bg, granted, wait)
		}
		leave()
	}
	if s.InUse() != 1 || s.Peak() != 0 {
		t.Fatalf("InUse=%d Peak=%d, want the probe outside the budget", s.InUse(), s.Peak())
	}
	s.Release(1)
}

// TestAdmitPrivate pins a private budget: the weight is ignored, no
// slot is taken and no credit attached, and the caller is bracketed as
// a live worker until leave.
func TestAdmitPrivate(t *testing.T) {
	s := New(2)
	bg := context.Background()
	ctx, leave, granted, wait, err := s.Admit(bg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ctx != bg || granted != 0 || wait != 0 || s.InUse() != 0 || s.Peak() != 1 {
		t.Fatalf("ctx changed=%t granted=%d wait=%v InUse=%d Peak=%d, want a bare Peak bracket",
			ctx != bg, granted, wait, s.InUse(), s.Peak())
	}
	leave()
	_, leave, _, _, _ = s.Admit(bg, 0)
	leave()
	if s.Peak() != 1 {
		t.Fatalf("Peak=%d after two sequential admissions, want 1", s.Peak())
	}
}

// TestAdmitCancelledWhileQueued pins a request whose context dies in
// the admission queue: it gets the context error and the time it
// queued, holds nothing, is not a live worker, and leaves the queue.
func TestAdmitCancelledWhileQueued(t *testing.T) {
	s := NewShared(1, 4)
	if !s.TryAcquire(1) {
		t.Fatal("fresh budget refused its only slot")
	}
	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		leave func()
		wait  time.Duration
		err   error
	}
	got := make(chan res, 1)
	go func() {
		_, leave, _, wait, err := s.Admit(ctx, 1)
		got <- res{leave, wait, err}
	}()
	for s.Waiting() == 0 {
		runtime.Gosched()
	}
	cancel()
	r := <-got
	if !errors.Is(r.err, context.Canceled) || r.leave != nil || r.wait <= 0 {
		t.Fatalf("cancelled admission: err=%v leave=%t wait=%v, want context.Canceled, no leave, wait > 0",
			r.err, r.leave != nil, r.wait)
	}
	if s.Waiting() != 0 || s.InUse() != 1 || s.Peak() != 0 {
		t.Fatalf("Waiting=%d InUse=%d Peak=%d after the cancelled admission", s.Waiting(), s.InUse(), s.Peak())
	}
	s.Release(1)
}
