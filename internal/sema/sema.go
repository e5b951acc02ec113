// Package sema provides the compile-wide worker budget: a weighted
// counting semaphore shared by every worker pool of one compilation —
// or, in shared-budget mode, by every compilation of one process — and
// the two rules for spending it, Admit and Spread.
//
// t10's Compile fans unique operators out to a pool, and each cold
// intra-operator search fans its Fop shards out to another — naively
// nested, that is up to Workers² live goroutines. Instead, both layers
// call Spread on one Sem sized Workers-1: the calling goroutine is
// always the first worker (so progress never blocks on the budget), and
// extra workers are spawned only while a slot is free. Because an inner
// pool's caller is an outer pool's worker, the total number of live
// worker goroutines across all nesting levels never exceeds
// 1 + capacity = Workers.
//
// Helper acquisition is deliberately non-blocking: a blocking acquire
// from a goroutine that already holds a slot deadlocks a nested pool,
// while opportunistic spawning degrades gracefully to the caller doing
// all the work itself.
//
// # Shared-budget mode
//
// NewShared builds a server-wide budget for many concurrent
// compilations (t10serve's /compile traffic): every compile's *calling*
// goroutine must also hold a slot, which Admit acquires — blocking and
// context-aware — before any work starts. Every live worker — request
// callers and helpers alike — then holds exactly one slot, so the
// process-wide live worker count never exceeds the capacity no matter
// how many requests arrive. Admission queues FIFO up to the admission
// bound and fails fast with ErrSaturated beyond it, which is the
// server's cue to shed load (HTTP 429/503) instead of stacking
// goroutines.
package sema

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSaturated is returned by AcquireWait (and so Admit) when the
// admission queue of a shared-budget semaphore is full: the caller
// should shed load (HTTP 429/503 with Retry-After) rather than wait.
var ErrSaturated = errors.New("sema: worker budget saturated, admission queue full")

// waiter is one queued AcquireWait call.
type waiter struct {
	n     int
	ready chan struct{} // closed when the slots have been granted
}

// Sem is the weighted semaphore plus worker-count instrumentation.
// The zero Sem has capacity zero (every TryAcquire fails); use New or
// NewShared.
type Sem struct {
	mu      sync.Mutex
	cap     int
	inUse   int
	running int
	peak    int
	shared  bool
	maxWait int // admission bound on queued acquires; <0 = unlimited
	waiters []*waiter
}

// New returns a semaphore with the given helper capacity. Negative
// capacities clamp to zero (a Workers=1 budget spawns no helpers).
func New(capacity int) *Sem {
	if capacity < 0 {
		capacity = 0
	}
	return &Sem{cap: capacity, maxWait: -1}
}

// NewShared returns a server-wide budget of capacity worker slots with
// a bounded admission queue: at most maxQueue AcquireWait calls may
// wait for a slot at once; further calls fail fast with ErrSaturated.
// Capacity clamps to at least one slot (a budget no compile could ever
// enter would deadlock every caller).
func NewShared(capacity, maxQueue int) *Sem {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Sem{cap: capacity, shared: true, maxWait: maxQueue}
}

// Cap returns the slot capacity.
func (s *Sem) Cap() int {
	if s == nil {
		return 0
	}
	return s.cap
}

// Admit admits the calling goroutine of one compile request into the
// budget. It returns the context the request's work runs under, the
// func that undoes the admission, the slots granted and how long the
// call waited in the admission queue.
//
// On a private budget (New) the weight is ignored: the caller is only
// counted as a live worker for Peak, and granted is 0. On a shared
// budget (NewShared) the caller holds weight slots for the request's
// whole lifetime, so an expensive compile admits as several requests'
// worth of load while a default request costs one slot. Weights above
// Cap clamp to it. The slots beyond the caller's own are not dead
// reservation: the returned context carries them as prepaid credit that
// the request's Spread calls spend before the free pool, so a heavy
// compile gets the parallelism it paid for. Weight ≤ 0 is the
// cache-probe fast path: no slot, no Peak bracket, and never
// ErrSaturated.
func (s *Sem) Admit(ctx context.Context, weight int) (context.Context, func(), int, time.Duration, error) {
	if s == nil || !s.shared {
		s.enter()
		return ctx, s.exit, 0, 0, nil
	}
	if weight <= 0 {
		return ctx, func() {}, 0, 0, nil
	}
	if weight > s.cap {
		weight = s.cap
	}
	wait, err := s.AcquireWait(ctx, weight)
	if err != nil {
		return ctx, nil, 0, wait, err
	}
	s.enter()
	if weight > 1 {
		ctx = withCredit(ctx, newCredit(weight-1))
	}
	return ctx, func() {
		s.exit()
		s.Release(weight)
	}, weight, wait, nil
}

// Spread runs work on the calling goroutine and on up to n-1 helper
// goroutines, and returns once every copy has returned; work must pull
// its items from a queue the copies share. Each helper is paid for from
// the context's prepaid credit first (slots its request already holds —
// see Admit), then from a free slot; once neither is left no further
// helper starts. Only helpers are counted for Peak here: the caller
// already is, by Admit or by the Spread that started it.
func (s *Sem) Spread(ctx context.Context, n int, work func()) {
	if n <= 1 {
		work()
		return
	}
	c := creditFrom(ctx)
	var wg sync.WaitGroup
	for ; n > 1; n-- {
		prepaid := c.take()
		if !prepaid && !s.TryAcquire(1) {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if prepaid {
				defer c.put()
			} else {
				defer s.Release(1)
			}
			s.enter()
			defer s.exit()
			work()
		}()
	}
	work()
	wg.Wait()
}

// TryAcquire reserves n slots if they are all free right now, without
// blocking. A nil Sem always refuses (the degenerate sequential
// budget), and so does a semaphore with queued waiters — opportunistic
// helpers must not starve admitted compilations waiting for their
// first slot.
func (s *Sem) TryAcquire(n int) bool {
	if s == nil || n <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) > 0 || s.inUse+n > s.cap {
		return false
	}
	s.inUse += n
	return true
}

// AcquireWait reserves n slots, waiting in FIFO order until they are
// free or ctx is done, and reports how long the call waited in the
// admission queue — the compile telemetry's AdmissionWait stage. The
// fast path (slots free, no queue) reports zero without reading the
// clock. On a shared-budget semaphore at most maxQueue calls may wait
// at once; beyond that AcquireWait fails fast with ErrSaturated. A nil
// Sem grants immediately (no budget to respect).
//
// AcquireWait is for the *callers* of a compilation (admission
// control); worker pools inside a compilation use Spread — a blocking
// acquire from a goroutine already holding a slot would deadlock the
// nested pools.
func (s *Sem) AcquireWait(ctx context.Context, n int) (time.Duration, error) {
	if s == nil || n <= 0 {
		return 0, nil
	}
	if n > s.cap {
		return 0, fmt.Errorf("sema: acquire %d slots from a %d-slot budget", n, s.cap)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	if len(s.waiters) == 0 && s.inUse+n <= s.cap {
		s.inUse += n
		s.mu.Unlock()
		return 0, nil
	}
	if s.maxWait >= 0 && len(s.waiters) >= s.maxWait {
		s.mu.Unlock()
		return 0, ErrSaturated
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	waitStart := time.Now()
	select {
	case <-w.ready:
		return time.Since(waitStart), nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// granted concurrently with cancellation: give the slots
			// back and let the next waiter have them
			s.inUse -= w.n
			s.grantLocked()
		default:
			for i, q := range s.waiters {
				if q == w {
					s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
					break
				}
			}
			// a departing large waiter may have been the only thing
			// blocking smaller ones behind it
			s.grantLocked()
		}
		s.mu.Unlock()
		return time.Since(waitStart), ctx.Err()
	}
}

// Release returns n slots and hands them to queued waiters in FIFO
// order.
func (s *Sem) Release(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inUse -= n
	if s.inUse < 0 {
		panic("sema: release without acquire")
	}
	s.grantLocked()
}

// grantLocked hands free slots to the head of the waiter queue. FIFO:
// a large waiter at the head blocks smaller ones behind it, so no
// admitted compile is starved by a stream of later arrivals.
func (s *Sem) grantLocked() {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if s.inUse+w.n > s.cap {
			return
		}
		s.inUse += w.n
		s.waiters = s.waiters[1:]
		close(w.ready)
	}
}

// InUse returns the slots currently held.
func (s *Sem) InUse() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inUse
}

// Waiting returns the number of acquires queued for a slot (the
// /stats "queued" gauge).
func (s *Sem) Waiting() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// enter brackets the start of one worker's run — an admitted caller's
// as well as every Spread helper's — so Peak reports the true number of
// concurrently live workers, which the budget tests assert never
// exceeds Workers (private budgets) or the capacity (shared budgets,
// where callers hold slots too).
func (s *Sem) enter() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.running++
	if s.running > s.peak {
		s.peak = s.running
	}
	s.mu.Unlock()
}

// exit brackets the end of one worker's run.
func (s *Sem) exit() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.running--
	if s.running < 0 {
		panic("sema: exit without enter")
	}
	s.mu.Unlock()
}

// Peak returns the maximum number of workers ever live at once.
func (s *Sem) Peak() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// credit is a prepaid helper allowance: the admission weight a request
// holds beyond its caller's own slot. Without it those slots would sit
// reserved while the request's own Spread calls fail TryAcquire against
// them — the most expensive compile in the system would run
// single-threaded while holding the whole budget. Every credited helper
// is backed by one of the request's held slots, so live workers never
// exceed slots held. Credits travel by context because a searcher is
// shared across requests: per-request allowances cannot live on it.
type credit struct{ n atomic.Int64 }

// newCredit returns an allowance of n helper slots; n <= 0 yields an
// empty (but usable) credit.
func newCredit(n int) *credit {
	c := &credit{}
	if n > 0 {
		c.n.Store(int64(n))
	}
	return c
}

// take consumes one credited slot, reporting whether one was left. A
// nil credit always refuses.
func (c *credit) take() bool {
	if c == nil {
		return false
	}
	for {
		n := c.n.Load()
		if n <= 0 {
			return false
		}
		if c.n.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// put returns one credited slot.
func (c *credit) put() {
	if c != nil {
		c.n.Add(1)
	}
}

// creditKey carries a *credit through a context.
type creditKey struct{}

func withCredit(ctx context.Context, c *credit) context.Context {
	return context.WithValue(ctx, creditKey{}, c)
}

// creditFrom extracts the context's helper allowance, or nil.
func creditFrom(ctx context.Context) *credit {
	c, _ := ctx.Value(creditKey{}).(*credit)
	return c
}
