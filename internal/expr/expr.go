// Package expr represents tensor operators as tensor expressions (§4.2 of
// the T10 paper): an output tensor computed from input tensors by
// iterating a set of named axes, e.g.
//
//	C[m,n] += A[m,k] * B[k,n]
//
// Axes can be reduction axes (summed over, like k), gather axes (indexed
// indirectly, like the vocabulary axis of an embedding lookup) or plain
// spatial axes. A tensor dimension may be a *compound axis* — an affine
// combination of axes such as the h+kh input dimension of a convolution
// (Equation 2 of the paper) — expressed here as a list of strided terms.
//
// The package provides shape/FLOP inference used by the planner and a
// reference (einsum-style) evaluator used by the functional simulator to
// prove compute-shift execution plans numerically correct.
package expr

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dtype"
)

// AxisKind classifies how an axis participates in the computation.
type AxisKind int

const (
	// Spatial axes index the output tensor.
	Spatial AxisKind = iota
	// Reduce axes are summed over (the k of a MatMul).
	Reduce
	// Gather axes index a tensor indirectly through an integer index
	// tensor (the vocabulary axis of GatherV2). They are not iterated by
	// the loop nest; partitioning them shards storage.
	Gather
)

func (k AxisKind) String() string {
	switch k {
	case Spatial:
		return "spatial"
	case Reduce:
		return "reduce"
	case Gather:
		return "gather"
	}
	return fmt.Sprintf("axiskind(%d)", int(k))
}

// Axis is one iteration axis of a tensor expression.
type Axis struct {
	Name string
	Size int
	Kind AxisKind
}

// DimTerm is one strided axis contribution to a tensor dimension
// coordinate: coordinate += Stride * axisIndex.
type DimTerm struct {
	Axis   int // index into Expr.Axes
	Stride int
}

// Dim describes one dimension of a tensor as an affine combination of
// axes. A plain dimension has a single term with stride 1; the input
// height of a stride-s convolution is {h: s, kh: 1}.
type Dim struct {
	Terms []DimTerm
}

// D builds a plain single-axis dimension.
func D(axis int) Dim { return Dim{Terms: []DimTerm{{Axis: axis, Stride: 1}}} }

// DS builds a strided single-axis dimension.
func DS(axis, stride int) Dim { return Dim{Terms: []DimTerm{{Axis: axis, Stride: stride}}} }

// DC builds a compound dimension from strided terms.
func DC(terms ...DimTerm) Dim { return Dim{Terms: terms} }

// Compound reports whether the dimension combines more than one axis.
func (d Dim) Compound() bool { return len(d.Terms) > 1 }

// HasAxis reports whether the dimension references axis a.
func (d Dim) HasAxis(a int) bool {
	for _, t := range d.Terms {
		if t.Axis == a {
			return true
		}
	}
	return false
}

// TensorRef binds a named tensor to expression axes.
type TensorRef struct {
	Name string
	Dims []Dim
	Elem dtype.Type
}

// OpKind is a coarse operator classification used to pick cost-model
// features and kernel templates.
type OpKind int

const (
	KindMatMul OpKind = iota
	KindConv
	KindPool
	KindReduce
	KindElementwise
	KindGather
)

func (k OpKind) String() string {
	switch k {
	case KindMatMul:
		return "MatMul"
	case KindConv:
		return "Conv"
	case KindPool:
		return "Pool"
	case KindReduce:
		return "Reduce"
	case KindElementwise:
		return "Elementwise"
	case KindGather:
		return "Gather"
	}
	return fmt.Sprintf("opkind(%d)", int(k))
}

// Expr is a tensor expression: Output[...] (+)= f(Inputs[...]...) iterated
// over Axes.
type Expr struct {
	Name   string
	Kind   OpKind
	Axes   []Axis
	Inputs []TensorRef
	Output TensorRef

	// FLOPsPerPoint is the number of floating-point operations performed
	// per iteration-space point (2 for multiply-accumulate, 1 for
	// additive reductions and most elementwise maps).
	FLOPsPerPoint int

	// The fields below are set only by the fusion pass (ComposeEpilogue /
	// ComposeContraction); they are all zero for an unfused expression,
	// which keeps unfused Signatures byte-identical to pre-fusion builds.

	// EpiloguePerPoint is the vector-unit FLOPs applied to every output
	// point after the contraction completes: the elementwise epilogue
	// (bias add, activation) folded into this expression.
	EpiloguePerPoint int

	// MidFLOPsPerPoint is the vector-unit FLOPs applied to every
	// intermediate point between the two contraction stages of a chained
	// expression (the softmax between attention's two matmuls). Only
	// meaningful when ChainAxes is non-empty.
	MidFLOPsPerPoint int

	// ChainAxes lists the axes (indices into Axes) that were the
	// producer's reduction axes before a contraction-chain fusion: the
	// fused kernel reduces them in its first stage, producing an
	// intermediate that the second stage reduces over the remaining
	// reduce axes. Empty for unfused and epilogue-only expressions.
	ChainAxes []int

	// FusedOps counts the source operators composed into this expression
	// (0 for an unfused expression, ≥2 for a fused group).
	FusedOps int
}

// DimSize returns the extent of dimension d given per-axis extents sizes
// (indexed like Expr.Axes): 1 + Σ stride*(extent-1).
func (e *Expr) DimSize(d Dim, sizes []int) int {
	n := 1
	for _, t := range d.Terms {
		n += t.Stride * (sizes[t.Axis] - 1)
	}
	return n
}

// extent returns the extent of dimension d at the declared axis sizes.
func (e *Expr) extent(d Dim) int {
	n := 1
	for _, t := range d.Terms {
		n += t.Stride * (e.Axes[t.Axis].Size - 1)
	}
	return n
}

// TensorShape returns the full shape of tensor t.
func (e *Expr) TensorShape(t TensorRef) []int {
	shape := make([]int, len(t.Dims))
	for i, d := range t.Dims {
		shape[i] = e.extent(d)
	}
	return shape
}

// TensorElems returns the number of elements of tensor t, without
// building its shape.
func (e *Expr) TensorElems(t TensorRef) int64 {
	n := int64(1)
	for _, d := range t.Dims {
		n *= int64(e.extent(d))
	}
	return n
}

// TensorBytes returns the storage size of tensor t in bytes.
func (e *Expr) TensorBytes(t TensorRef) int64 {
	return e.TensorElems(t) * int64(t.Elem.Size())
}

// IterPoints returns the size of the iteration space: the product of all
// non-gather axis sizes.
func (e *Expr) IterPoints() int64 {
	n := int64(1)
	for _, a := range e.Axes {
		if a.Kind != Gather {
			n *= int64(a.Size)
		}
	}
	return n
}

// FLOPs returns the floating point operations needed by the operator.
// For a chained (fused) contraction the iteration space covers both
// stages, so the count is the sum of the two stages' true MAC work plus
// the mid-stage and epilogue vector work — not IterPoints·FLOPsPerPoint,
// which would bill the first stage once per second-stage point.
func (e *Expr) FLOPs() int64 {
	n := e.IterPoints() * int64(e.FLOPsPerPoint)
	if cp := e.chainProd(); cp > 1 {
		mid := e.ChainMidPoints()
		n = e.IterPoints() / cp * int64(e.FLOPsPerPoint) // second stage
		n += mid * cp * int64(e.FLOPsPerPoint)           // first stage
		n += mid * int64(e.MidFLOPsPerPoint)
	}
	n += e.TensorElems(e.Output) * int64(e.EpiloguePerPoint)
	return n
}

// chainProd returns the product of the chain-axis sizes (1 when the
// expression is not a chained contraction).
func (e *Expr) chainProd() int64 {
	p := int64(1)
	for _, a := range e.ChainAxes {
		p *= int64(e.Axes[a].Size)
	}
	return p
}

// ChainMidPoints returns the element count of the intermediate tensor of
// a chained contraction (the attention score matrix): the product of the
// non-chain axes that share an input tensor with a chain axis. Zero when
// the expression is unchained.
func (e *Expr) ChainMidPoints() int64 {
	if len(e.ChainAxes) == 0 {
		return 0
	}
	chain := make([]bool, len(e.Axes))
	for _, a := range e.ChainAxes {
		chain[a] = true
	}
	mid := make([]bool, len(e.Axes))
	for _, in := range e.Inputs {
		has := false
		for _, a := range e.ChainAxes {
			if ContainsAxis(in, a) {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		for _, d := range in.Dims {
			for _, tm := range d.Terms {
				if !chain[tm.Axis] {
					mid[tm.Axis] = true
				}
			}
		}
	}
	p := int64(1)
	for i, m := range mid {
		if m {
			p *= int64(e.Axes[i].Size)
		}
	}
	return p
}

// Tensors returns all tensor refs, inputs first, output last.
func (e *Expr) Tensors() []TensorRef {
	ts := make([]TensorRef, 0, len(e.Inputs)+1)
	ts = append(ts, e.Inputs...)
	ts = append(ts, e.Output)
	return ts
}

// ContainsAxis reports whether tensor t references axis a in any dim.
func ContainsAxis(t TensorRef, a int) bool {
	for _, d := range t.Dims {
		if d.HasAxis(a) {
			return true
		}
	}
	return false
}

// AxisDim returns the index of the dimension of t referencing axis a, or
// -1 if a does not appear.
func AxisDim(t TensorRef, a int) int {
	for i, d := range t.Dims {
		if d.HasAxis(a) {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants: axis references are in range, the
// output carries every spatial axis, every axis is used somewhere, names
// are unique and sizes positive.
func (e *Expr) Validate() error {
	if len(e.Axes) == 0 {
		return fmt.Errorf("expr %s: no axes", e.Name)
	}
	names := make(map[string]bool, len(e.Axes))
	for i, a := range e.Axes {
		if a.Size <= 0 {
			return fmt.Errorf("expr %s: axis %s has non-positive size %d", e.Name, a.Name, a.Size)
		}
		if names[a.Name] {
			return fmt.Errorf("expr %s: duplicate axis name %s", e.Name, a.Name)
		}
		names[a.Name] = true
		_ = i
	}
	used := make([]bool, len(e.Axes))
	check := func(t TensorRef) error {
		if len(t.Dims) == 0 {
			return fmt.Errorf("expr %s: tensor %s has no dims", e.Name, t.Name)
		}
		for _, d := range t.Dims {
			if len(d.Terms) == 0 {
				return fmt.Errorf("expr %s: tensor %s has an empty dim", e.Name, t.Name)
			}
			for _, tm := range d.Terms {
				if tm.Axis < 0 || tm.Axis >= len(e.Axes) {
					return fmt.Errorf("expr %s: tensor %s references axis %d out of range", e.Name, t.Name, tm.Axis)
				}
				if tm.Stride <= 0 {
					return fmt.Errorf("expr %s: tensor %s has non-positive stride", e.Name, t.Name)
				}
				used[tm.Axis] = true
			}
		}
		return nil
	}
	for _, in := range e.Inputs {
		if err := check(in); err != nil {
			return err
		}
	}
	if err := check(e.Output); err != nil {
		return err
	}
	for i, a := range e.Axes {
		if !used[i] {
			return fmt.Errorf("expr %s: axis %s unused", e.Name, a.Name)
		}
		switch a.Kind {
		case Spatial:
			if !ContainsAxis(e.Output, i) {
				return fmt.Errorf("expr %s: spatial axis %s missing from output", e.Name, a.Name)
			}
		case Reduce, Gather:
			if ContainsAxis(e.Output, i) {
				return fmt.Errorf("expr %s: %s axis %s appears in output", e.Name, a.Kind, a.Name)
			}
		}
	}
	if e.FLOPsPerPoint < 0 {
		return fmt.Errorf("expr %s: negative FLOPsPerPoint", e.Name)
	}
	if e.EpiloguePerPoint < 0 || e.MidFLOPsPerPoint < 0 || e.FusedOps < 0 {
		return fmt.Errorf("expr %s: negative fusion counters", e.Name)
	}
	if e.MidFLOPsPerPoint > 0 && len(e.ChainAxes) == 0 {
		return fmt.Errorf("expr %s: mid-stage FLOPs without chain axes", e.Name)
	}
	seenChain := make(map[int]bool, len(e.ChainAxes))
	for _, a := range e.ChainAxes {
		if a < 0 || a >= len(e.Axes) {
			return fmt.Errorf("expr %s: chain axis %d out of range", e.Name, a)
		}
		if e.Axes[a].Kind != Reduce {
			return fmt.Errorf("expr %s: chain axis %s is not a reduce axis", e.Name, e.Axes[a].Name)
		}
		if seenChain[a] {
			return fmt.Errorf("expr %s: duplicate chain axis %s", e.Name, e.Axes[a].Name)
		}
		seenChain[a] = true
	}
	return nil
}

// Signature returns a canonical string identifying the operator shape.
// Identical operators (same kind, axes, tensor bindings) share compiled
// plans — the paper notes plans "can be cached and reused for identical
// operators within or across models". It runs on every cache probe.
func (e *Expr) Signature() string {
	num := func(b []byte, n int, sep byte) []byte { return append(strconv.AppendInt(b, int64(n), 10), sep) }
	var buf [256]byte // on the stack: the returned string is the one allocation
	b := append(append(buf[:0], e.Kind.String()...), '|')
	for _, a := range e.Axes {
		b = append(append(b, a.Name...), ':')
		b = num(num(b, a.Size, ':'), int(a.Kind), ',')
	}
	for i := 0; i <= len(e.Inputs); i++ { // e.Tensors(), without its slice
		t := e.Output
		if i < len(e.Inputs) {
			t = e.Inputs[i]
		}
		b = append(append(b, '|'), t.Elem.String()...)
		for _, d := range t.Dims {
			b = append(b, '[')
			for _, tm := range d.Terms {
				b = num(num(b, tm.Stride, '*'), tm.Axis, '+')
			}
			b = append(b, ']')
		}
	}
	// Fusion metadata changes what the kernel computes, so it is part of
	// the identity — but it is appended only when present, keeping every
	// unfused signature byte-identical to pre-fusion builds.
	if e.FusedOps != 0 || e.EpiloguePerPoint != 0 || e.MidFLOPsPerPoint != 0 || len(e.ChainAxes) > 0 {
		b = num(num(num(append(b, "|fuse:"...), e.FusedOps, ':'), e.EpiloguePerPoint, ':'), e.MidFLOPsPerPoint, ':')
		for _, a := range e.ChainAxes {
			b = num(b, a, ',')
		}
	}
	return string(b)
}

// String renders the expression in the paper's notation, e.g.
// "C[m,n] += A[m,k] * B[k,n]".
func (e *Expr) String() string {
	var b strings.Builder
	render := func(t TensorRef) {
		b.WriteString(t.Name)
		b.WriteByte('[')
		for i, d := range t.Dims {
			if i > 0 {
				b.WriteByte(',')
			}
			for j, tm := range d.Terms {
				if j > 0 {
					b.WriteByte('+')
				}
				if tm.Stride != 1 {
					fmt.Fprintf(&b, "%d*", tm.Stride)
				}
				b.WriteString(e.Axes[tm.Axis].Name)
			}
		}
		b.WriteByte(']')
	}
	render(e.Output)
	b.WriteString(" += ")
	for i, in := range e.Inputs {
		if i > 0 {
			b.WriteString(" * ")
		}
		render(in)
	}
	return b.String()
}
