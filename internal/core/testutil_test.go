package core

import (
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
)

var (
	cmOnce sync.Once
	cmSet  *costmodel.Set
)

// newTestCostModel fits the cost model once per test binary; fitting is
// cheap but there is no reason to repeat it per test.
func newTestCostModel(t testing.TB) *costmodel.Set {
	t.Helper()
	cmOnce.Do(func() {
		cmSet = costmodel.MustNewSet(device.IPUMK2())
	})
	return cmSet
}

// FactorsPadOK reports whether tensor ti's temporal factors alone keep
// every axis within the padding rule under the Begin Fop: the per-combo
// scan the search's per-factor live sets replaced, kept as the oracle
// DimPadOK is checked through.
func (ps *PlanSketch) FactorsPadOK(ti int, ft []int) bool {
	for d, f := range ft {
		if f > 1 && !ps.DimPadOK(ti, d, f) {
			return false
		}
	}
	return true
}
