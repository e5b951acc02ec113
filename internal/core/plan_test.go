package core

import (
	"math/rand"
	"testing"

	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/mathutil"
)

// fig7MatMul is the running example of Fig 7: C[m,n] += A[m,k]*B[k,n]
// with m=2, k=6, n=3, partitioned 2×3 with f_t^A=[1,3], f_t^B=[2,1].
func fig7MatMul(t *testing.T) *Plan {
	t.Helper()
	e := expr.MatMul("mm", 2, 6, 3, dtype.FP16)
	// tensors: A, B, C — axes: m(0), k(1), n(2)
	p, err := NewPlan(e, []int{2, 1, 3}, [][]int{
		{1, 3}, // A: temporal split along k into 3
		{2, 1}, // B: temporal split along k into 2
		nil,    // C
	}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFig7Alignment(t *testing.T) {
	p := fig7MatMul(t)
	if p.Cores != 6 {
		t.Fatalf("cores = %d, want 6", p.Cores)
	}
	// The paper: rp on k must be min(6/3, 6/2) = 2, giving 3 steps.
	if p.RPAxis[1] != 2 {
		t.Errorf("rp_k = %d, want 2", p.RPAxis[1])
	}
	if p.StepsPerAxis[1] != 3 || p.TotalSteps != 3 {
		t.Errorf("steps = %v (total %d), want 3 along k", p.StepsPerAxis, p.TotalSteps)
	}
	// Partition lengths 6/3=2 for A and 6/2=3 for B.
	a, b := &p.Tensors[0], &p.Tensors[1]
	if a.PartShape[1] != 2 {
		t.Errorf("A partition k-length = %d, want 2", a.PartShape[1])
	}
	if b.PartShape[0] != 3 {
		t.Errorf("B partition k-length = %d, want 3", b.PartShape[0])
	}
	// sharing degrees: A shared by n=3 cores, B by m=2 cores
	if a.ShareP != 3 || b.ShareP != 2 {
		t.Errorf("sharing = %d,%d want 3,2", a.ShareP, b.ShareP)
	}
	if a.Rings != 1 || b.Rings != 1 {
		t.Errorf("rings = %d,%d want 1,1", a.Rings, b.Rings)
	}
}

func TestFig7SkewedPlacement(t *testing.T) {
	p := fig7MatMul(t)
	if err := p.ValidatePlacement(); err != nil {
		t.Fatal(err)
	}
	// Window starts must be w0(i,j) = 3i + 2j (mod 6): the skew that
	// makes A's and B's rotations meet (§4.4; the README's "Cross-chip
	// partitioning" section describes the placement proof).
	grid := p.Grid()
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			c := grid.Core([]int{i, 0, j})
			got := p.WindowStart(1, grid.Coords(c, nil))
			want := (3*i + 2*j) % 6
			if got != want {
				t.Errorf("w0(m=%d,n=%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestFig3PlanTradeoff(t *testing.T) {
	// Fig 3: MatMul m=4, k=2, n=2 on two cores. Plan (b) replicates the
	// weight (one step, no shifts); plan (c) splits it along n (two
	// steps, shifting).
	e := expr.MatMul("mm", 4, 2, 2, dtype.FP16)

	planB, err := NewPlan(e, []int{2, 1, 1}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if planB.TotalSteps != 1 || planB.ShiftBytesPerCore() != 0 {
		t.Errorf("plan (b): steps=%d shift=%d, want 1 step no shifts",
			planB.TotalSteps, planB.ShiftBytesPerCore())
	}
	if planB.Tensors[1].Rings != 2 {
		t.Errorf("plan (b) should replicate B across both cores: rings=%d", planB.Tensors[1].Rings)
	}

	planC, err := NewPlan(e, []int{2, 1, 1}, [][]int{nil, {1, 2}, nil}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if planC.TotalSteps != 2 {
		t.Errorf("plan (c): steps=%d, want 2", planC.TotalSteps)
	}
	if planC.ShiftBytesPerCore() == 0 {
		t.Error("plan (c) must shift the weight tensor")
	}
	// The trade-off of §3: (c) uses less memory than (b) but communicates.
	memB := planB.Tensors[1].PartBytes()
	memC := planC.Tensors[1].PartBytes()
	if memC*2 != memB {
		t.Errorf("plan (c) should hold half the weight per core: %d vs %d", memC, memB)
	}
	if err := planC.ValidatePlacement(); err != nil {
		t.Fatal(err)
	}
}

func TestSpatialFactorDerivation(t *testing.T) {
	// §4.2's example: Fop=[2,1,3] on [m,k,n] → fs^A=[2,1], fs^B=[1,3],
	// fs^C=[2,3].
	e := expr.MatMul("mm", 4, 6, 9, dtype.FP16)
	p, err := NewPlan(e, []int{2, 1, 3}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		tensor int
		want   []int
	}{
		{0, []int{2, 1}},
		{1, []int{1, 3}},
		{2, []int{2, 3}},
	}
	for _, c := range checks {
		got := p.Tensors[c.tensor].Fs
		for d := range c.want {
			if got[d] != c.want[d] {
				t.Errorf("tensor %d fs = %v, want %v", c.tensor, got, c.want)
			}
		}
	}
}

func TestFtMustDivideSharingDegree(t *testing.T) {
	e := expr.MatMul("mm", 4, 6, 9, dtype.FP16)
	// B is shared by Fop_m = 2 cores; ft of 4 cannot divide it.
	_, err := NewPlan(e, []int{2, 1, 3}, [][]int{nil, {4, 1}, nil}, DefaultConfig())
	if err == nil {
		t.Fatal("∏ft=4 should not divide sharing degree 2")
	}
}

func TestOutputCannotRotate(t *testing.T) {
	e := expr.MatMul("mm", 4, 6, 9, dtype.FP16)
	_, err := NewPlan(e, []int{2, 1, 3}, [][]int{nil, nil, {2, 1}}, DefaultConfig())
	if err == nil {
		t.Fatal("temporally partitioned output should be rejected")
	}
}

func TestCompoundDimCannotRotate(t *testing.T) {
	e := expr.Conv2D("conv", 1, 4, 4, 8, 8, 3, 3, 1, dtype.FP16)
	// input dims: b, c, h+kh, w+kw — dim 2 is compound
	_, err := NewPlan(e, []int{1, 4, 1, 1, 1, 1, 1}, [][]int{
		{1, 1, 2, 1}, nil, nil,
	}, DefaultConfig())
	if err == nil {
		t.Fatal("compound dim temporal split should be rejected")
	}
}

func TestPaddingRoundsUpSubLen(t *testing.T) {
	// k=10 split temporally by 4 pads the sub-operator to 12.
	e := expr.MatMul("mm", 4, 10, 8, dtype.FP16)
	p, err := NewPlan(e, []int{4, 1, 1}, [][]int{nil, {4, 1}, nil}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.SubLen[1] != 12 {
		t.Errorf("padded k = %d, want 12", p.SubLen[1])
	}
	if p.RPAxis[1] != 3 || p.StepsPerAxis[1] != 4 {
		t.Errorf("rp=%d steps=%d, want 3 and 4", p.RPAxis[1], p.StepsPerAxis[1])
	}
}

func TestConvHaloMemoryAccounting(t *testing.T) {
	// Partitioning h across 4 cores replicates kh-1 halo rows per core.
	e := expr.Conv2D("conv", 1, 8, 4, 16, 16, 3, 3, 1, dtype.FP16)
	p, err := NewPlan(e, []int{1, 1, 1, 4, 1, 1, 1}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := &p.Tensors[0]
	// sub-operator h extent = 4, input dim = 4 + 3 - 1 = 6
	if in.SubShape[2] != 6 {
		t.Errorf("input h sub-extent = %d, want 6 (halo)", in.SubShape[2])
	}
}

func TestReduceShareTriggersAllReduce(t *testing.T) {
	e := expr.MatMul("mm", 4, 64, 4, dtype.FP16)
	p, err := NewPlan(e, []int{1, 4, 1}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.ReduceShare != 4 {
		t.Errorf("ReduceShare = %d, want 4", p.ReduceShare)
	}
	// output is replicated on all 4 cores
	if p.Tensors[2].Rings != 4 {
		t.Errorf("output rings = %d, want 4", p.Tensors[2].Rings)
	}
}

func TestLoopOrderPutsBiggerTilesOuter(t *testing.T) {
	// Two rotating tensors on different axes with very different tile
	// sizes: the big tile's axis must be the outer loop.
	e := expr.MatMul("mm", 64, 64, 64, dtype.FP16)
	p, err := NewPlan(e, []int{2, 1, 2}, [][]int{
		{1, 2}, // A rotates along k
		{1, 2}, // B rotates along n
		nil,
	}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.LoopOrder) != 2 {
		t.Fatalf("loop order = %v, want 2 iterated axes", p.LoopOrder)
	}
	t0, t1 := p.ShiftTileBytes(p.LoopOrder[0]), p.ShiftTileBytes(p.LoopOrder[1])
	if t0 < t1 {
		t.Errorf("outer tile %d smaller than inner %d", t0, t1)
	}
	// inner axis advances more often
	if p.Advances(p.LoopOrder[1]) < p.Advances(p.LoopOrder[0]) {
		t.Error("inner axis should advance at least as often")
	}
}

func TestGridRoundTrip(t *testing.T) {
	e := expr.MatMul("mm", 8, 8, 8, dtype.FP16)
	p, err := NewPlan(e, []int{2, 2, 4}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := p.Grid()
	for c := 0; c < g.Cores(); c++ {
		coords := g.Coords(c, nil)
		if back := g.Core(coords); back != c {
			t.Fatalf("grid round trip: %d -> %v -> %d", c, coords, back)
		}
	}
}

func TestRingNeighborRoundTrip(t *testing.T) {
	p := fig7MatMul(t)
	g := p.Grid()
	for ti := 0; ti < 2; ti++ {
		rt := &p.Tensors[ti]
		if !rt.Rotates() {
			continue
		}
		for c := 0; c < g.Cores(); c++ {
			coords := g.Coords(c, nil)
			ft := rt.Ft[rt.RotDims[0]]
			// ft hops forward return to self
			cur := c
			for hop := 0; hop < ft; hop++ {
				cur = p.RingNeighbor(g, rt, g.Coords(cur, nil), 0, 1)
			}
			if cur != c {
				t.Fatalf("tensor %s: %d hops from core %d end at %d", rt.Ref.Name, ft, c, cur)
			}
			// forward then backward is identity
			fwd := p.RingNeighbor(g, rt, coords, 0, 1)
			back := p.RingNeighbor(g, rt, g.Coords(fwd, nil), 0, -1)
			if back != c {
				t.Fatalf("tensor %s: fwd/back from %d gives %d", rt.Ref.Name, c, back)
			}
		}
	}
}

func TestEstimateComponents(t *testing.T) {
	p := fig7MatMul(t)
	cm := newTestCostModel(t)
	est := p.Estimate(cm)
	if est.Steps != 3 {
		t.Errorf("steps = %d", est.Steps)
	}
	if est.ComputeNs <= 0 || est.ShiftNs <= 0 || est.SyncNs <= 0 {
		t.Errorf("estimate has non-positive parts: %+v", est)
	}
	if est.TotalNs != est.ComputeNs+est.ShiftNs+est.AllReduceNs+est.SyncNs {
		t.Error("total != sum of parts")
	}
	if est.MemPerCore != p.MemPerCore() {
		t.Error("estimate memory mismatch")
	}
}

func TestEstimateAllReduce(t *testing.T) {
	e := expr.MatMul("mm", 8, 64, 8, dtype.FP16)
	p, err := NewPlan(e, []int{1, 4, 1}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm := newTestCostModel(t)
	est := p.Estimate(cm)
	if est.AllReduceNs <= 0 {
		t.Error("spatially partitioned reduction must pay an all-reduce")
	}
}

func TestMemoryTradeoffMonotonicity(t *testing.T) {
	// Larger temporal factors → smaller memory, more shift traffic.
	e := expr.MatMul("mm", 64, 256, 64, dtype.FP16)
	var prevMem, prevShift int64 = 1 << 62, -1
	for _, ft := range []int{1, 2, 4, 8} {
		p, err := NewPlan(e, []int{8, 1, 1}, [][]int{nil, {ft, 1}, nil}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		mem := p.Tensors[1].PartBytes()
		shift := p.ShiftBytesPerCore()
		if mem >= prevMem && ft > 1 {
			t.Errorf("ft=%d: memory %d did not shrink from %d", ft, mem, prevMem)
		}
		if shift < prevShift {
			t.Errorf("ft=%d: shift %d shrank from %d", ft, shift, prevShift)
		}
		prevMem, prevShift = mem, shift
	}
}

func TestKernelTaskRoles(t *testing.T) {
	e := expr.MatMul("mm", 32, 64, 16, dtype.FP16)
	p, err := NewPlan(e, []int{4, 1, 2}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	task := p.KernelTask()
	// sub-operator: m=8, k=64, n=8; one step
	if task.M != 8 || task.K != 64 || task.N != 8 {
		t.Errorf("task = M%d K%d N%d, want 8/64/8", task.M, task.K, task.N)
	}
	if task.InBytes != int64(8*64+64*8)*2 || task.OutBytes != 8*8*2 {
		t.Errorf("task bytes = %d/%d", task.InBytes, task.OutBytes)
	}
}

func TestKernelTaskConvWindow(t *testing.T) {
	e := expr.Conv2D("conv", 1, 8, 4, 8, 8, 3, 3, 1, dtype.FP16)
	p, err := NewPlan(e, []int{1, 2, 1, 2, 2, 1, 1}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	task := p.KernelTask()
	if task.KH != 3 || task.KW != 3 {
		t.Errorf("window = %dx%d, want 3x3", task.KH, task.KW)
	}
	// M: spatial in input I: b*h*w = 1*4*4; N: f = 4; K: c*kh*kw = 36
	if task.M != 16 || task.N != 4 || task.K != 36 {
		t.Errorf("roles = M%d N%d K%d", task.M, task.N, task.K)
	}
}

func TestShiftBufferIterations(t *testing.T) {
	e := expr.MatMul("mm", 8, 4096, 8, dtype.FP16)
	small := DefaultConfig()
	small.ShiftBufBytes = 1024
	p, err := NewPlan(e, []int{2, 1, 1}, [][]int{nil, {2, 1}, nil}, small)
	if err != nil {
		t.Fatal(err)
	}
	// B partition: [2048, 8] fp16; one advance ships rp=2048 rows → big tile
	a := p.LoopOrder[0]
	if iters := p.shiftIters(a); iters <= 1 {
		t.Errorf("tiny shift buffer should need multiple iterations, got %d", iters)
	}
	big := DefaultConfig()
	big.ShiftBufBytes = 1 << 20
	p2, err := NewPlan(e, []int{2, 1, 1}, [][]int{nil, {2, 1}, nil}, big)
	if err != nil {
		t.Fatal(err)
	}
	if iters := p2.shiftIters(a); iters != 1 {
		t.Errorf("huge shift buffer should need one iteration, got %d", iters)
	}
}

func TestRandomPlansValidate(t *testing.T) {
	// Property: every plan NewPlan accepts has a consistent skewed
	// placement.
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{4, 6, 8}, {6, 12, 4}, {8, 8, 8}, {2, 6, 3}, {12, 24, 6}}
	tried, ok := 0, 0
	for iter := 0; iter < 400; iter++ {
		s := shapes[rng.Intn(len(shapes))]
		e := expr.MatMul("mm", s[0], s[1], s[2], dtype.FP16)
		fop := []int{1 + rng.Intn(s[0]), 1 + rng.Intn(2), 1 + rng.Intn(s[2])}
		var fts [][]int
		if rng.Intn(2) == 0 {
			shareA := fop[2]
			shareB := fop[0]
			dA := mathutil.Divisors(shareA)
			dB := mathutil.Divisors(shareB)
			fts = [][]int{
				{1, dA[rng.Intn(len(dA))]},
				{dB[rng.Intn(len(dB))], 1},
				nil,
			}
		}
		p, err := NewPlan(e, fop, fts, DefaultConfig())
		if err != nil {
			continue
		}
		tried++
		if err := p.ValidatePlacement(); err != nil {
			t.Fatalf("iter %d: placement invalid for %v fts=%v: %v", iter, fop, fts, err)
		}
		if p.MemPerCore() <= 0 || p.ShiftBytesPerCore() < 0 {
			t.Fatalf("iter %d: bad accounting", iter)
		}
		ok++
	}
	if tried < 100 {
		t.Fatalf("too few valid plans exercised: %d", tried)
	}
	_ = ok
}
