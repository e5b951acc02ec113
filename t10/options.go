package t10

// CompileOption is request-scoped policy for one Compile or Search
// call, as opposed to the compiler-lifetime knobs in Options and the
// construction-scoped CompilerOption values. A request with no options
// abandons its in-flight work on cancellation. Neither admission nor
// telemetry is an option: on a shared pool the compiler prices every
// request's admission itself (see Options.SharedPool), and every
// request collects its Telemetry record.
type CompileOption func(*reqOptions)

// reqOptions is the resolved per-request policy.
type reqOptions struct {
	detach       bool // finish + cache in-flight op searches on cancellation
	microbatches int  // pipeline depth for CompileSharded; <= 1 = no pipelining
}

func resolveReqOptions(opts []CompileOption) reqOptions {
	var ro reqOptions
	for _, o := range opts {
		if o != nil {
			o(&ro)
		}
	}
	return ro
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
