package t10

// CompileOption is request-scoped policy for one Compile or Search
// call, as opposed to the compiler-lifetime knobs in Options and the
// construction-scoped CompilerOption values. A request with no options
// behaves like v1: admission weight 1, cancellation abandons in-flight
// work. Telemetry is no option: every request collects its record.
type CompileOption func(*reqOptions)

// reqOptions is the resolved per-request policy.
type reqOptions struct {
	weight       int  // admission slots on a shared pool; 0 = cache-probe fast path
	detach       bool // finish + cache in-flight op searches on cancellation
	microbatches int  // pipeline depth for CompileSharded; <= 1 = no pipelining
}

func resolveReqOptions(opts []CompileOption) reqOptions {
	ro := reqOptions{weight: 1}
	for _, o := range opts {
		if o != nil {
			o(&ro)
		}
	}
	return ro
}

// WithAdmissionWeight sets how many worker-budget slots the request
// acquires on a shared pool (Options.SharedPool) — cost-weighted
// admission. The default is 1: every request costs one slot, however
// expensive. A server that prices requests first (Compiler.EstimateCost
// and CostEstimate.Weight) can give a cold 70B-layer compile several
// slots — so a few of them saturate the pool instead of dozens — while
// slots of headroom keep absorbing ordinary traffic. The reservation is
// not dead weight: the slots beyond the caller's own come back to the
// request's worker pools as prepaid helper credit (sema.Sem.Admit), so a
// heavily weighted compile parallelizes into exactly the capacity it
// was charged for.
//
// Weight 0 is the cache-probe fast path: the request declares it will
// be answered from the plan cache, does no search work, and skips
// admission entirely — it can never be shed with sema.ErrSaturated. A
// mis-declared weight-0 request that misses the cache still compiles
// correctly, just outside the budget; the estimate is advisory.
// Negative weights count as 0; weights above the pool capacity clamp
// to it. Private (non-shared) pools ignore the weight.
func WithAdmissionWeight(slots int) CompileOption {
	return func(ro *reqOptions) {
		if slots < 0 {
			slots = 0
		}
		ro.weight = slots
	}
}

// WithPipelineMicrobatches sets the pipeline depth M for CompileSharded:
// the batch is split into M equal microbatches so pipeline stages
// overlap across chips, at the price of the bubble term charged for
// stage imbalance (scaleout.Partition.Price). The default (and any
// value <= 1) is no pipelining — one batch walks the stages in
// sequence, pure latency. Plain Compile ignores the option: a single
// chip has no pipeline to fill.
func WithPipelineMicrobatches(m int) CompileOption {
	return func(ro *reqOptions) { ro.microbatches = m }
}

// WithDetachOnCancel converts cancellation from discarded work into
// cache warm-up: when the request's context dies, the operator searches
// already in flight finish in the background (no new ones start) and
// their results enter the plan cache, so a retry of the same request
// resumes from warm entries. The caller still gets ctx.Err()
// immediately; on a shared pool the request's admission slots stay held
// until the detached work completes, so the budget keeps counting the
// work that is genuinely still running. A server can cap how many
// requests may run detached at once (Options.DetachLimit); beyond the
// cap, cancellation degrades to the plain kind — in-flight work stops
// and the slots come back.
func WithDetachOnCancel() CompileOption {
	return func(ro *reqOptions) { ro.detach = true }
}
