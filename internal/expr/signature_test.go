package expr

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dtype"
)

// refSignature is the fmt-built Signature the strconv one replaced,
// kept verbatim: plan-cache keys hash the signature, so the two must
// agree byte for byte on every expression, valid or not.
func refSignature(e *Expr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|", e.Kind)
	for _, a := range e.Axes {
		fmt.Fprintf(&b, "%s:%d:%d,", a.Name, a.Size, int(a.Kind))
	}
	for _, t := range e.Tensors() {
		b.WriteByte('|')
		b.WriteString(t.Elem.String())
		for _, d := range t.Dims {
			b.WriteByte('[')
			for _, tm := range d.Terms {
				fmt.Fprintf(&b, "%d*%d+", tm.Stride, tm.Axis)
			}
			b.WriteByte(']')
		}
	}
	if e.FusedOps != 0 || e.EpiloguePerPoint != 0 || e.MidFLOPsPerPoint != 0 || len(e.ChainAxes) > 0 {
		fmt.Fprintf(&b, "|fuse:%d:%d:%d:", e.FusedOps, e.EpiloguePerPoint, e.MidFLOPsPerPoint)
		for _, a := range e.ChainAxes {
			fmt.Fprintf(&b, "%d,", a)
		}
	}
	return b.String()
}

func TestSignatureMatchesReference(t *testing.T) {
	mm := MatMul("mm", 6, 5, 4, dtype.FP16)
	epi, err := ComposeEpilogue(mm, EltwiseBinary("bias", 6, 4, dtype.FP16), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, chained := buildAttention(t, 2, 3, 4, 5, 6)
	for _, e := range []*Expr{
		mm, epi, chained,
		BatchMatMul("bmm", 4, 128, 64, 128, dtype.FP32),
		Conv2D("conv", 8, 64, 3, 224, 224, 7, 7, 2, dtype.FP16),
		Pool2D("pool", 8, 64, 112, 112, 3, 3, 2, dtype.INT8),
		ReduceSum("sum", 1024, 4096, dtype.FP32),
		Elementwise("gelu", 1024, 4096, 8, dtype.FP16),
		EltwiseBinary("add", 1024, 4096, dtype.FP16),
		GatherOp("emb", 8, 30522, 768, dtype.INT32),
	} {
		if got, want := e.Signature(), refSignature(e); got != want {
			t.Errorf("%s: Signature %q, reference %q", e.Name, got, want)
		}
		if err := checkAppendSignature(e); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

// checkAppendSignature appends e's signature onto a non-empty prefix:
// the prefix must survive and refSignature follow it.
func checkAppendSignature(e *Expr) error {
	const prefix = "key-tail|"
	got := string(e.AppendSignature([]byte(prefix)))
	if want := prefix + refSignature(e); got != want {
		return fmt.Errorf("AppendSignature onto %q = %q, want %q", prefix, got, want)
	}
	return nil
}

// sigReader decodes an arbitrary byte string into expression fields,
// reading zeros once the input is exhausted.
type sigReader []byte

func (r *sigReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// int reads a signed 32-bit value: negative, zero and large sizes all
// reach the signature.
func (r *sigReader) int() int {
	var b [4]byte
	for i := range b {
		b[i] = r.byte()
	}
	return int(int32(binary.LittleEndian.Uint32(b[:])))
}

func (r *sigReader) name() string {
	b := make([]byte, r.byte()%4)
	for i := range b {
		b[i] = r.byte()
	}
	return string(b)
}

func (r *sigReader) tensor() TensorRef {
	t := TensorRef{Name: r.name(), Elem: dtype.Type(int8(r.byte()))}
	for d := r.byte() % 4; d > 0; d-- {
		var dim Dim
		for n := r.byte() % 3; n > 0; n-- {
			dim.Terms = append(dim.Terms, DimTerm{Axis: r.int(), Stride: r.int()})
		}
		t.Dims = append(t.Dims, dim)
	}
	return t
}

// FuzzSignature asserts the strconv Signature equals refSignature on
// arbitrary expressions: any axes, sizes, kinds and dtypes (defined or
// not), compound strided dimensions, and fusion metadata — and that
// AppendSignature onto a non-empty prefix appends the same bytes.
func FuzzSignature(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x03\x01m\x00\x04\x00\x00\x00\x01k\x00\x04\x00\x00\x01"))
	f.Add([]byte("\x01\x02\x02kh\x03\x00\x00\x00\x01\x01\x00\x02\x02\x00\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\xff"))
	f.Add([]byte("\xf9\x05\x03abc\xff\xff\xff\xff\x09\x02\x00\x03\x02\x01\x03\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := sigReader(data)
		e := &Expr{Name: r.name(), Kind: OpKind(int8(r.byte()))}
		for n := r.byte() % 6; n > 0; n-- {
			e.Axes = append(e.Axes, Axis{Name: r.name(), Size: r.int(), Kind: AxisKind(int8(r.byte()))})
		}
		for n := r.byte() % 4; n > 0; n-- {
			e.Inputs = append(e.Inputs, r.tensor())
		}
		e.Output = r.tensor()
		if r.byte()%2 == 1 {
			e.FusedOps, e.EpiloguePerPoint, e.MidFLOPsPerPoint = r.int(), r.int(), r.int()
			for n := r.byte() % 4; n > 0; n-- {
				e.ChainAxes = append(e.ChainAxes, r.int())
			}
		}
		if got, want := e.Signature(), refSignature(e); got != want {
			t.Fatalf("Signature %q, reference %q", got, want)
		}
		if err := checkAppendSignature(e); err != nil {
			t.Fatal(err)
		}
	})
}
