package dtype

import "testing"

func TestSizes(t *testing.T) {
	cases := []struct {
		t    Type
		size int
		name string
	}{
		{FP16, 2, "fp16"},
		{FP32, 4, "fp32"},
		{INT32, 4, "int32"},
		{INT8, 1, "int8"},
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.t, got, c.size)
		}
		if got := c.t.String(); got != c.name {
			t.Errorf("String() = %q, want %q", got, c.name)
		}
	}
}

func TestInvalidType(t *testing.T) {
	bad := Type(99)
	defer func() {
		if recover() == nil {
			t.Error("Size() of invalid type should panic")
		}
	}()
	bad.Size()
}
