package t10

import (
	"context"
	"sync/atomic"
)

// DetachLimit caps how many WithDetachOnCancel requests may be running
// detached — cancelled but still holding their admission slots while
// their in-flight searches finish — at once. Without a cap, a storm of
// cancelled heavy compiles pins the shared worker budget: every one of
// them legitimately holds its slots until its background work drains,
// and live traffic starves behind work nobody is waiting for. With a
// cap, the first max cancellations detach (cache warm-up proceeds) and
// the rest degrade to plain cancellation: in-flight work stops, slots
// come back, and the rejection is counted.
//
// One DetachLimit is shared by every compiler of a server
// (Options.DetachLimit); it is safe for concurrent use. A nil
// *DetachLimit means no cap (v2 behaviour, nothing counted).
type DetachLimit struct {
	max      int64
	active   atomic.Int64
	rejected atomic.Int64
}

// NewDetachLimit returns a cap of max concurrently detached requests;
// max <= 0 means unlimited (the limiter then only counts, which is
// still worth wiring into /stats).
func NewDetachLimit(max int) *DetachLimit {
	return &DetachLimit{max: int64(max)}
}

// Active returns how many requests are currently running detached.
func (l *DetachLimit) Active() int64 {
	if l == nil {
		return 0
	}
	return l.active.Load()
}

// Rejected returns how many cancellations wanted to detach but were
// degraded to plain cancellation by the cap.
func (l *DetachLimit) Rejected() int64 {
	if l == nil {
		return 0
	}
	return l.rejected.Load()
}

// tryEnter claims a detach slot; a refusal is counted in Rejected.
// A nil limiter always grants (and counts nothing).
func (l *DetachLimit) tryEnter() bool {
	if l == nil {
		return true
	}
	for {
		n := l.active.Load()
		if l.max > 0 && n >= l.max {
			l.rejected.Add(1)
			return false
		}
		if l.active.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// exit returns a detach slot.
func (l *DetachLimit) exit() {
	if l != nil {
		l.active.Add(-1)
	}
}

// detachRun runs one request body with detach-on-cancel semantics: the
// work runs on its own goroutine under a context that survives the
// request's cancellation, holding the admission slots (leave) until it
// finishes — the work is still running, so the budget must still see
// it. The caller gets the result when the work completes first, or
// ctx.Err() the moment ctx dies.
//
// On cancellation the gate decides the work's fate: a granted detach
// slot lets the in-flight searches finish and enter the plan cache
// (the retry finds warm entries), with a watcher returning the slot
// when they drain; a refused one cancels the derived context, so the
// work stops promptly and the admission slots come back — exactly a
// plain cancellation, which is the cap's point. A dead ctx always asks
// the gate, even when the work has finished by the time anyone looks.
func detachRun[T any](ctx context.Context, gate *DetachLimit, leave func(), run func(context.Context) (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	dctx, dcancel := context.WithCancel(context.WithoutCancel(ctx))
	done := make(chan outcome, 1)
	go func() {
		defer leave()
		v, err := run(dctx)
		done <- outcome{v, err}
	}()
	select {
	case o := <-done:
		if ctx.Err() == nil {
			dcancel()
			return o.v, o.err
		}
		// both were ready and select picked the work: hand the outcome
		// back for the watcher and take the cancellation path
		done <- o
	case <-ctx.Done():
	}
	if gate.tryEnter() {
		go func() {
			<-done
			gate.exit()
			dcancel()
		}()
	} else {
		dcancel()
	}
	var zero T
	return zero, ctx.Err()
}
