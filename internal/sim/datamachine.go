package sim

import "fmt"

// DataMachine is the functional half of the simulator: named float32
// buffers per core, with BSP-consistent exchanges (all reads happen
// before any write, like a real synchronized exchange phase). The code
// generator uses it to execute compute-shift plans with real data and
// prove them numerically equal to the reference einsum.
type DataMachine struct {
	cores int
	bufs  []map[string][]float32
}

// NewDataMachine creates a machine with the given number of cores.
func NewDataMachine(cores int) *DataMachine {
	m := &DataMachine{cores: cores, bufs: make([]map[string][]float32, cores)}
	for i := range m.bufs {
		m.bufs[i] = make(map[string][]float32)
	}
	return m
}

// Cores returns the machine size.
func (m *DataMachine) Cores() int { return m.cores }

// Alloc creates a zeroed buffer on one core. Reallocating an existing
// name replaces it.
func (m *DataMachine) Alloc(core int, name string, n int) {
	m.bufs[core][name] = make([]float32, n)
}

// Buf returns the named buffer on a core; it panics if absent, since a
// missing buffer is always a code-generation bug.
func (m *DataMachine) Buf(core int, name string) []float32 {
	b, ok := m.bufs[core][name]
	if !ok {
		panic(fmt.Sprintf("sim: core %d has no buffer %q", core, name))
	}
	return b
}

// MemBytes returns the current allocation on a core, assuming the given
// element size (the functional machine stores float32 but plans account
// in the plan's element type).
func (m *DataMachine) MemBytes(core, elemSize int) int64 {
	var n int64
	for _, b := range m.bufs[core] {
		n += int64(len(b)) * int64(elemSize)
	}
	return n
}

// Copy is one region copy in a functional exchange: n elements from
// (SrcCore, SrcBuf, SrcOff) to (DstCore, DstBuf, DstOff).
type Copy struct {
	SrcCore int
	SrcBuf  string
	SrcOff  int
	DstCore int
	DstBuf  string
	DstOff  int
	N       int
}

// ExchangeAll applies all copies simultaneously with BSP semantics:
// every source region is read into staging before any destination is
// written, so circular shifts do not observe partially updated buffers.
func (m *DataMachine) ExchangeAll(copies []Copy) {
	staged := make([][]float32, len(copies))
	for i, c := range copies {
		src := m.Buf(c.SrcCore, c.SrcBuf)
		if c.SrcOff < 0 || c.SrcOff+c.N > len(src) {
			panic(fmt.Sprintf("sim: copy %d reads [%d,%d) of %q len %d on core %d",
				i, c.SrcOff, c.SrcOff+c.N, c.SrcBuf, len(src), c.SrcCore))
		}
		s := make([]float32, c.N)
		copy(s, src[c.SrcOff:c.SrcOff+c.N])
		staged[i] = s
	}
	for i, c := range copies {
		dst := m.Buf(c.DstCore, c.DstBuf)
		if c.DstOff < 0 || c.DstOff+c.N > len(dst) {
			panic(fmt.Sprintf("sim: copy %d writes [%d,%d) of %q len %d on core %d",
				i, c.DstOff, c.DstOff+c.N, c.DstBuf, len(dst), c.DstCore))
		}
		copy(dst[c.DstOff:c.DstOff+c.N], staged[i])
	}
}
