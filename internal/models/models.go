// Package models builds the operator graphs of every workload in the
// paper's Table 2: BERT-Large, ViT-Base, ResNet-18, a NeRF MLP, and the
// LLM decode layers of §6.7 (OPT, Llama2, RetNet).
//
// Shapes use valid-convolution arithmetic (no implicit same-padding) —
// the scheduling and memory behaviour the paper studies is identical,
// and parameter-count tests pin each model to its Table 2 size.
package models

import (
	"fmt"
	"slices"

	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/graph"
)

// builder accumulates a sequential model; branch points are handled by
// remembering op indices explicitly.
type builder struct {
	m    *graph.Model
	last int // op producing the current activation (External before any)
}

func newBuilder(name string, batch int) *builder {
	return &builder{m: &graph.Model{Name: name, BatchSize: batch}, last: graph.External}
}

// add appends an op whose first input comes from the current activation
// and whose listed weight inputs are external parameters; it returns the
// op index.
func (b *builder) add(e *expr.Expr, weights []int, repeat int) int {
	srcs := make([]int, len(e.Inputs))
	for i := range srcs {
		srcs[i] = graph.External
	}
	if len(e.Inputs) > 0 && !slices.Contains(weights, 0) {
		srcs[0] = b.last
	}
	return b.addWired(e, weights, repeat, srcs)
}

// skipAdd appends a two-input residual add: X from the current
// activation, Y from the given earlier op (the skip connection).
func (b *builder) skipAdd(name string, m, n, from, repeat int) int {
	e := expr.EltwiseBinary(name, m, n, dtype.FP16)
	return b.addWired(e, nil, repeat, []int{b.last, from})
}

// addWired appends an op with fully explicit input sources.
func (b *builder) addWired(e *expr.Expr, weights []int, repeat int, srcs []int) int {
	b.m.Ops = append(b.m.Ops, graph.Op{
		Name: e.Name, Expr: e, WeightInputs: weights, Sources: srcs, Repeat: repeat,
	})
	b.last = len(b.m.Ops) - 1
	return b.last
}

// matmul appends a weighted projection: out = act × W[k,n].
func (b *builder) matmul(name string, m, k, n, repeat int) int {
	return b.add(expr.MatMul(name, m, k, n, dtype.FP16), []int{1}, repeat)
}

// BERT builds BERT-Large (340M parameters, Table 2): 24 layers, hidden
// 1024, 16 heads, FFN 4096, sequence length 128.
func BERT(batch int) *graph.Model {
	const (
		layers = 24
		hidden = 1024
		heads  = 16
		ffn    = 4096
		seq    = 128
		vocab  = 30522
	)
	rows := batch * seq
	b := newBuilder("BERT", batch)
	layerIn := b.add(expr.GatherOp("embed", rows, vocab, hidden, dtype.FP16), []int{0}, 1)
	// one transformer layer, repeated
	b.matmul("qkv", rows, hidden, 3*hidden, layers)
	b.add(expr.BatchMatMul("scores", batch*heads, seq, hidden/heads, seq, dtype.FP16), nil, layers)
	b.add(expr.Elementwise("softmax", batch*heads*seq, seq, 8, dtype.FP16), nil, layers)
	b.add(expr.BatchMatMul("attnv", batch*heads, seq, seq, hidden/heads, dtype.FP16), nil, layers)
	b.matmul("proj", rows, hidden, hidden, layers)
	b.skipAdd("residual1", rows, hidden, layerIn, layers)
	ffnIn := b.add(expr.Elementwise("ln1", rows, hidden, 8, dtype.FP16), nil, layers)
	b.matmul("ffn1", rows, hidden, ffn, layers)
	b.add(expr.Elementwise("gelu", rows, ffn, 8, dtype.FP16), nil, layers)
	b.matmul("ffn2", rows, ffn, hidden, layers)
	b.skipAdd("residual2", rows, hidden, ffnIn, layers)
	b.add(expr.Elementwise("ln2", rows, hidden, 8, dtype.FP16), nil, layers)
	return b.m
}

// ViT builds ViT-Base (86M parameters): 12 layers, hidden 768, 12 heads,
// FFN 3072, 196 patches + class token.
func ViT(batch int) *graph.Model {
	const (
		layers = 12
		hidden = 768
		heads  = 12
		ffn    = 3072
		seq    = 197
	)
	rows := batch * seq
	b := newBuilder("ViT", batch)
	// patch embedding: a 16×16×3 conv expressed as a matmul
	layerIn := b.matmul("patch", batch*196, 768, hidden, 1)
	b.matmul("qkv", rows, hidden, 3*hidden, layers)
	b.add(expr.BatchMatMul("scores", batch*heads, seq, hidden/heads, seq, dtype.FP16), nil, layers)
	b.add(expr.Elementwise("softmax", batch*heads*seq, seq, 8, dtype.FP16), nil, layers)
	b.add(expr.BatchMatMul("attnv", batch*heads, seq, seq, hidden/heads, dtype.FP16), nil, layers)
	b.matmul("proj", rows, hidden, hidden, layers)
	b.skipAdd("residual1", rows, hidden, layerIn, layers)
	ffnIn := b.add(expr.Elementwise("ln1", rows, hidden, 8, dtype.FP16), nil, layers)
	b.matmul("ffn1", rows, hidden, ffn, layers)
	b.add(expr.Elementwise("gelu", rows, ffn, 8, dtype.FP16), nil, layers)
	b.matmul("ffn2", rows, ffn, hidden, layers)
	b.skipAdd("residual2", rows, hidden, ffnIn, layers)
	b.add(expr.Elementwise("ln2", rows, hidden, 8, dtype.FP16), nil, layers)
	b.matmul("head", batch, hidden, 1000, 1)
	return b.m
}

// ResNet builds ResNet-18 (11.7M parameters): conv1, four 2-block
// stages, average pool and the classifier.
func ResNet(batch int) *graph.Model {
	b := newBuilder("ResNet", batch)
	conv := func(name string, f, c, h, w, k, stride, repeat int) {
		b.add(expr.Conv2D(name, batch, f, c, h, w, k, k, stride, dtype.FP16), []int{1}, repeat)
	}
	conv("conv1", 64, 3, 112, 112, 7, 2, 1)
	b.add(expr.Pool2D("maxpool", batch, 64, 56, 56, 3, 3, 2, dtype.FP16), nil, 1)

	// each basic block is two 3×3 convs with an identity (or 1×1
	// downsample) skip connection
	stage := func(name string, cin, cout, h, firstStride int) {
		blockIn := b.last
		conv(name+"a1", cout, cin, h, h, 3, firstStride, 1)
		a2 := len(b.m.Ops) // index the a2 conv takes next
		conv(name+"a2", cout, cout, h, h, 3, 1, 1)
		skip := blockIn
		if firstStride != 1 || cin != cout {
			// downsample path consumes the block input, not a2
			e := expr.Conv2D(name+"down", batch, cout, cin, h, h, 1, 1, firstStride, dtype.FP16)
			skip = b.addWired(e, []int{1}, 1, []int{blockIn, graph.External})
		}
		b.addWired(expr.EltwiseBinary(name+"addA", batch*cout, h*h, dtype.FP16),
			nil, 1, []int{a2, skip})
		blockBIn := b.last
		conv(name+"b1", cout, cout, h, h, 3, 1, 1)
		conv(name+"b2", cout, cout, h, h, 3, 1, 1)
		b.skipAdd(name+"addB", batch*cout, h*h, blockBIn, 1)
	}
	stage("s1", 64, 64, 56, 1)
	stage("s2", 64, 128, 28, 2)
	stage("s3", 128, 256, 14, 2)
	stage("s4", 256, 512, 7, 2)

	b.add(expr.Pool2D("avgpool", batch, 512, 1, 1, 7, 7, 7, dtype.FP16), nil, 1)
	b.matmul("fc", batch, 512, 1000, 1)
	return b.m
}

// NeRF builds the fully-connected NeRF network of Table 2 (≈24K
// parameters): a 6-layer width-64 MLP evaluated over 64K samples per
// batch unit.
func NeRF(batch int) *graph.Model {
	const (
		width   = 64
		layers  = 6
		samples = 65536
	)
	rows := batch * samples
	b := newBuilder("NeRF", batch)
	b.matmul("encode", rows, 60, width, 1)
	b.matmul("hidden", rows, width, width, layers-1)
	b.add(expr.Elementwise("relu", rows, width, 1, dtype.FP16), nil, layers)
	b.matmul("rgbsigma", rows, width, 4, 1)
	return b.m
}

// LLMConfig sizes one decoder layer.
type LLMConfig struct {
	Name   string
	Hidden int
	Heads  int
	FFN    int
	Layers int // layers evaluated on one chip (Fig 23 captions)
	SwiGLU bool
	CtxLen int
}

// LLMConfigs returns the §6.7 decoding workloads.
func LLMConfigs() []LLMConfig {
	return []LLMConfig{
		{Name: "OPT-1.3B", Hidden: 2048, Heads: 32, FFN: 8192, Layers: 6, CtxLen: 512},
		{Name: "OPT-2.7B", Hidden: 2560, Heads: 32, FFN: 10240, Layers: 4, CtxLen: 512},
		{Name: "OPT-6.7B", Hidden: 4096, Heads: 32, FFN: 16384, Layers: 2, CtxLen: 512},
		{Name: "OPT-13B", Hidden: 5120, Heads: 40, FFN: 20480, Layers: 1, CtxLen: 512},
		{Name: "Llama2-7B", Hidden: 4096, Heads: 32, FFN: 11008, Layers: 2, SwiGLU: true, CtxLen: 512},
		{Name: "Llama2-13B", Hidden: 5120, Heads: 40, FFN: 13824, Layers: 1, SwiGLU: true, CtxLen: 512},
		{Name: "RetNet-1.3B", Hidden: 2048, Heads: 8, FFN: 4096, Layers: 6, CtxLen: 512},
	}
}

// LLMDecode builds the single-token decoding graph for cfg at the given
// batch size: per layer, the QKV/output projections, attention against a
// KV cache (or the RetNet retention update), and the FFN.
//
// The decoding context shrinks as the batch grows (ctx = min(CtxLen,
// 4096/batch) past batch 8) so the serving working set — layer weights
// plus the KV cache — stays within one chip's memory. The paper keeps a
// layer subset resident per chip (§6.7) but does not state its context
// length; this scaling keeps the cache near 170 MB for the largest
// model at every batch size.
func LLMDecode(cfg LLMConfig, batch int) *graph.Model {
	b := newBuilder(cfg.Name, batch)
	h, heads := cfg.Hidden, cfg.Heads
	hd := h / heads
	ctx := decodeCtx(cfg, batch)
	for range []int{0} { // one layer shape, repeated cfg.Layers times
		b.matmul("qkv", batch, h, 3*h, cfg.Layers)
		if cfg.Name == "RetNet-1.3B" {
			// retention: per-head state update S = γS + kᵀv and read-out
			// q·S, both O(batch·heads·hd²) elementwise work
			b.add(expr.Elementwise("retention", batch*heads, hd*hd, 4, dtype.FP16), nil, cfg.Layers)
		} else {
			b.add(expr.BatchMatMul("scores", batch*heads, 1, hd, ctx, dtype.FP16), nil, cfg.Layers)
			b.add(expr.Elementwise("softmax", batch*heads, ctx, 8, dtype.FP16), nil, cfg.Layers)
			b.add(expr.BatchMatMul("attnv", batch*heads, 1, ctx, hd, dtype.FP16), nil, cfg.Layers)
		}
		b.matmul("proj", batch, h, h, cfg.Layers)
		b.ffn(cfg, batch)
	}
	return b.m
}

// decodeCtx is the serving context length for cfg at the given batch:
// CtxLen, shrunk past batch 8 (ctx = min(CtxLen, 4096/batch), floored
// at 32) so layer weights plus the KV cache stay within one chip.
func decodeCtx(cfg LLMConfig, batch int) int {
	ctx := cfg.CtxLen
	if batch > 8 && ctx > 4096/batch {
		ctx = 4096 / batch
		if ctx < 32 {
			ctx = 32
		}
	}
	return ctx
}

// ffn appends cfg's feed-forward block (SwiGLU or GELU MLP) over the
// given activation rows.
func (b *builder) ffn(cfg LLMConfig, rows int) {
	h := cfg.Hidden
	if cfg.SwiGLU {
		b.matmul("gate", rows, h, cfg.FFN, cfg.Layers)
		b.matmul("up", rows, h, cfg.FFN, cfg.Layers)
		b.add(expr.Elementwise("swish", rows, cfg.FFN, 4, dtype.FP16), nil, cfg.Layers)
		b.matmul("down", rows, cfg.FFN, h, cfg.Layers)
	} else {
		b.matmul("ffn1", rows, h, cfg.FFN, cfg.Layers)
		b.add(expr.Elementwise("gelu", rows, cfg.FFN, 8, dtype.FP16), nil, cfg.Layers)
		b.matmul("ffn2", rows, cfg.FFN, h, cfg.Layers)
	}
}

// LLMPrefill builds the prompt-processing (prefill) graph for cfg: the
// whole seqLen-token prompt flows through each layer at once, so every
// projection is a tall GEMM over batch·seqLen rows, attention is the
// full seqLen×seqLen score matrix, and the freshly projected K/V rows
// stream into the layer's KV cache (the kv_append op — memory-bound
// pointwise work over 2·hidden values per token). Prefill is the heavy
// half of the serving asymmetry: per request it does seqLen× the
// projection FLOPs of a decode step, which is why a serving mix prices
// prefill compiles heavy and decode probes cheap.
//
// Under the operator-fusion pass (t10.WithFusion) the
// scores→softmax→attnv chain folds into one composed contraction; the
// qkv projection stays unfused because both the cache append and the
// score computation consume it.
func LLMPrefill(cfg LLMConfig, batch, seqLen int) *graph.Model {
	b := newBuilder(cfg.Name+"-prefill", batch)
	h, heads := cfg.Hidden, cfg.Heads
	hd := h / heads
	rows := batch * seqLen
	qkv := b.matmul("qkv", rows, h, 3*h, cfg.Layers)
	b.addWired(expr.Elementwise("kv_append", rows, 2*h, 1, dtype.FP16),
		nil, cfg.Layers, []int{qkv})
	if cfg.Name == "RetNet-1.3B" {
		b.addWired(expr.Elementwise("retention", batch*heads, hd*hd, 4, dtype.FP16),
			nil, cfg.Layers, []int{qkv})
	} else {
		b.addWired(expr.BatchMatMul("scores", batch*heads, seqLen, hd, seqLen, dtype.FP16),
			nil, cfg.Layers, []int{qkv, graph.External})
		b.add(expr.Elementwise("softmax", batch*heads*seqLen, seqLen, 8, dtype.FP16), nil, cfg.Layers)
		b.add(expr.BatchMatMul("attnv", batch*heads, seqLen, seqLen, hd, dtype.FP16), nil, cfg.Layers)
	}
	b.matmul("proj", rows, h, h, cfg.Layers)
	b.ffn(cfg, rows)
	return b.m
}

// LLMDecodeStep builds one autoregressive decode step for cfg with the
// KV cache made explicit: each sequence contributes a single token row,
// so every projection is a GEMV-shaped matmul (M = batch), the new K/V
// projections append to the cache (kv_append), and attention reads the
// ctx cached tokens per head. The context shrinks with batch exactly as
// in LLMDecode (see decodeCtx). LLMDecode remains the §6.7 benchmark
// graph; this builder is its serving-scenario twin, separated so the
// Table 2 / Fig 23 numbers never move underneath the serving example.
func LLMDecodeStep(cfg LLMConfig, batch int) *graph.Model {
	b := newBuilder(cfg.Name+"-decode", batch)
	h, heads := cfg.Hidden, cfg.Heads
	hd := h / heads
	ctx := decodeCtx(cfg, batch)
	qkv := b.matmul("qkv", batch, h, 3*h, cfg.Layers)
	b.addWired(expr.Elementwise("kv_append", batch, 2*h, 1, dtype.FP16),
		nil, cfg.Layers, []int{qkv})
	if cfg.Name == "RetNet-1.3B" {
		b.addWired(expr.Elementwise("retention", batch*heads, hd*hd, 4, dtype.FP16),
			nil, cfg.Layers, []int{qkv})
	} else {
		b.addWired(expr.BatchMatMul("scores", batch*heads, 1, hd, ctx, dtype.FP16),
			nil, cfg.Layers, []int{qkv, graph.External})
		b.add(expr.Elementwise("softmax", batch*heads, ctx, 8, dtype.FP16), nil, cfg.Layers)
		b.add(expr.BatchMatMul("attnv", batch*heads, 1, ctx, hd, dtype.FP16), nil, cfg.Layers)
	}
	b.matmul("proj", batch, h, h, cfg.Layers)
	b.ffn(cfg, batch)
	return b.m
}

// Build constructs a Table 2 model by name.
func Build(name string, batch int) (*graph.Model, error) {
	switch name {
	case "BERT":
		return BERT(batch), nil
	case "ViT":
		return ViT(batch), nil
	case "ResNet":
		return ResNet(batch), nil
	case "NeRF":
		return NeRF(batch), nil
	}
	for _, cfg := range LLMConfigs() {
		switch name {
		case cfg.Name:
			return LLMDecode(cfg, batch), nil
		case cfg.Name + "-prefill":
			return LLMPrefill(cfg, batch, cfg.CtxLen), nil
		case cfg.Name + "-decode":
			return LLMDecodeStep(cfg, batch), nil
		}
	}
	return nil, fmt.Errorf("models: unknown model %q", name)
}

// Table2 lists the DNN benchmark names (the four end-to-end models of
// Fig 12; LLM layer workloads are listed by LLMConfigs).
func Table2() []string { return []string{"BERT", "ViT", "ResNet", "NeRF"} }

// Batches returns the batch sizes evaluated per model in Fig 12.
func Batches(model string) []int {
	switch model {
	case "BERT":
		return []int{1, 2, 4, 8, 16}
	case "ViT":
		return []int{1, 2, 4, 8, 16, 32, 64, 128}
	case "ResNet":
		return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	case "NeRF":
		return []int{1}
	}
	return []int{1}
}
