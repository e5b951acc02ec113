// Package mathutil provides small integer helpers used throughout the
// compiler: ceiling division, rounding, GCD/LCM, divisor enumeration
// (with a memoised variant) and products.
//
// Everything here is deterministic and allocation-conscious; the plan
// enumerator calls these functions millions of times.
package mathutil

import "sync"

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("mathutil: CeilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// RoundUp returns the smallest multiple of m that is >= a. m must be positive.
func RoundUp(a, m int) int {
	if m <= 0 {
		panic("mathutil: RoundUp with non-positive multiple")
	}
	return CeilDiv(a, m) * m
}

// GCD returns the greatest common divisor of a and b.
func GCD(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// LCM returns the least common multiple of a and b.
// LCM(0, x) is defined as 0.
func LCM(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return a / GCD(a, b) * b
}

// LCMAll returns the least common multiple of all values; LCMAll() == 1.
func LCMAll(vs ...int) int {
	l := 1
	for _, v := range vs {
		l = LCM(l, v)
	}
	return l
}

// Divisors returns all positive divisors of n in ascending order.
func Divisors(n int) []int {
	if n <= 0 {
		panic("mathutil: Divisors of non-positive number")
	}
	var small, large []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			small = append(small, d)
			if d != n/d {
				large = append(large, n/d)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

// divisorMemo caches divisor tables across calls. The plan enumerator
// asks for the divisors of the same handful of axis lengths and sharing
// degrees millions of times per search; the table is tiny (one entry per
// distinct n ever asked about) and lives for the process.
var divisorMemo sync.Map // int → []int, treated as immutable

// DivisorsCached returns all positive divisors of n in ascending order,
// memoized across calls. The returned slice is shared — callers must
// treat it as read-only (use Divisors for a private copy).
func DivisorsCached(n int) []int {
	if v, ok := divisorMemo.Load(n); ok {
		return v.([]int)
	}
	d := Divisors(n)
	v, _ := divisorMemo.LoadOrStore(n, d)
	return v.([]int)
}

// Prod returns the product of all values; Prod() == 1.
func Prod(vs ...int) int {
	p := 1
	for _, v := range vs {
		p *= v
	}
	return p
}

// CeilDiv64 returns ceil(a/b) for positive b, in 64-bit arithmetic.
func CeilDiv64(a, b int64) int64 {
	if b <= 0 {
		panic("mathutil: CeilDiv64 by non-positive divisor")
	}
	return (a + b - 1) / b
}
