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
