// Package dtype defines the tensor element types supported by the
// compiler and their storage sizes. The IPU evaluation in the paper runs
// FP16 throughout; FP32 is used by the functional simulator's reference
// arithmetic, and INT32 by index tensors (GatherV2).
package dtype

import "fmt"

// Type identifies a tensor element type.
type Type int

const (
	FP16 Type = iota
	FP32
	INT32
	INT8
)

// Size returns the element size in bytes.
func (t Type) Size() int {
	switch t {
	case FP16:
		return 2
	case FP32:
		return 4
	case INT32:
		return 4
	case INT8:
		return 1
	}
	panic(fmt.Sprintf("dtype: unknown type %d", int(t)))
}

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case FP16:
		return "fp16"
	case FP32:
		return "fp32"
	case INT32:
		return "int32"
	case INT8:
		return "int8"
	}
	return fmt.Sprintf("dtype(%d)", int(t))
}
