package mathutil

import (
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {5, 2, 3}, {6, 2, 3}, {7, 2, 4},
		{1472, 624, 3}, {100, 100, 1}, {101, 100, 2},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(1,0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestRoundUp(t *testing.T) {
	cases := []struct{ a, m, want int }{
		{0, 4, 0}, {1, 4, 4}, {4, 4, 4}, {5, 4, 8}, {17, 16, 32}, {6, 3, 6},
	}
	for _, c := range cases {
		if got := RoundUp(c.a, c.m); got != c.want {
			t.Errorf("RoundUp(%d,%d) = %d, want %d", c.a, c.m, got, c.want)
		}
	}
}

func TestGCDLCM(t *testing.T) {
	if g := GCD(12, 18); g != 6 {
		t.Errorf("GCD(12,18) = %d, want 6", g)
	}
	if g := GCD(7, 13); g != 1 {
		t.Errorf("GCD(7,13) = %d, want 1", g)
	}
	if g := GCD(0, 5); g != 5 {
		t.Errorf("GCD(0,5) = %d, want 5", g)
	}
	if l := LCM(4, 6); l != 12 {
		t.Errorf("LCM(4,6) = %d, want 12", l)
	}
	if l := LCM(0, 6); l != 0 {
		t.Errorf("LCM(0,6) = %d, want 0", l)
	}
	if l := LCMAll(2, 3, 4); l != 12 {
		t.Errorf("LCMAll(2,3,4) = %d, want 12", l)
	}
	if l := LCMAll(); l != 1 {
		t.Errorf("LCMAll() = %d, want 1", l)
	}
}

func TestGCDLCMProperties(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := int(a)+1, int(b)+1
		g := GCD(x, y)
		l := LCM(x, y)
		return x%g == 0 && y%g == 0 && l%x == 0 && l%y == 0 && g*l == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{12, []int{1, 2, 3, 4, 6, 12}},
		{16, []int{1, 2, 4, 8, 16}},
		{13, []int{1, 13}},
	}
	for _, c := range cases {
		got := Divisors(c.n)
		if len(got) != len(c.want) {
			t.Errorf("Divisors(%d) = %v, want %v", c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Divisors(%d) = %v, want %v", c.n, got, c.want)
				break
			}
		}
	}
}

func TestDivisorsProperty(t *testing.T) {
	f := func(n uint8) bool {
		m := int(n)%200 + 1
		ds := Divisors(m)
		// ascending, all divide, includes 1 and m
		if ds[0] != 1 || ds[len(ds)-1] != m {
			return false
		}
		for i, d := range ds {
			if m%d != 0 {
				return false
			}
			if i > 0 && ds[i-1] >= d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProd(t *testing.T) {
	if Prod() != 1 {
		t.Error("Prod() should be 1")
	}
	if Prod(2, 3, 4) != 24 {
		t.Error("Prod(2,3,4) should be 24")
	}
}
