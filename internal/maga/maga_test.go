package maga

import (
	"testing"
	"testing/quick"

	"mic/internal/addr"
	"mic/internal/sim"
)

func TestWidthsValidate(t *testing.T) {
	if err := DefaultWidths().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Widths{
		{SID: 6, SPart: 12, FPart: 9},  // sum != 20
		{SID: 12, SPart: 12, FPart: 8}, // SID not < SPart
		{SID: 0, SPart: 12, FPart: 8},
		{SID: 6, SPart: 20, FPart: 0},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("Widths %+v accepted", w)
		}
	}
}

func TestFitWidths(t *testing.T) {
	// Small fabrics keep the defaults; FatTree(4) has 20 switches.
	if got := FitWidths(20); got != DefaultWidths() {
		t.Fatalf("FitWidths(20) = %+v, want defaults", got)
	}
	// The default 6 SID bits hold 63 MNs + the common class.
	if got := FitWidths(63); got != DefaultWidths() {
		t.Fatalf("FitWidths(63) = %+v, want defaults", got)
	}
	cases := []struct {
		switches int
		sid      int
	}{
		{64, 7},  // 64 + CF class overflows 6 bits
		{80, 7},  // FatTree(8)
		{320, 9}, // FatTree(16)
		{1000, 10},
	}
	for _, c := range cases {
		w := FitWidths(c.switches)
		if err := w.Validate(); err != nil {
			t.Fatalf("FitWidths(%d) = %+v invalid: %v", c.switches, w, err)
		}
		if w.SID != c.sid {
			t.Errorf("FitWidths(%d).SID = %d, want %d", c.switches, w.SID, c.sid)
		}
		if w.MaxSIDs() < uint32(c.switches)+1 {
			t.Errorf("FitWidths(%d) holds only %d classes", c.switches, w.MaxSIDs())
		}
	}
}

func TestRotl(t *testing.T) {
	if got := rotl(0b0001, 1, 4); got != 0b0010 {
		t.Fatalf("rotl = %b", got)
	}
	if got := rotl(0b1000, 1, 4); got != 0b0001 {
		t.Fatalf("rotl wrap = %b", got)
	}
	if got := rotr(rotl(0b1011, 3, 4), 3, 4); got != 0b1011 {
		t.Fatalf("rotr(rotl) = %b", got)
	}
}

func TestBijTermIsBijective(t *testing.T) {
	rng := sim.NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		width := 1 + rng.Intn(16)
		term := bijTerm{k: rng.Uint32() & (1<<width - 1), r: 1 + rng.Intn(width)}
		seen := make(map[uint32]bool)
		for v := uint32(0); v < 1<<width; v++ {
			out := term.apply(v, width)
			if seen[out] {
				t.Fatalf("width %d: term not injective at %d", width, v)
			}
			seen[out] = true
			if back := term.invert(out, width); back != v {
				t.Fatalf("invert(apply(%d)) = %d", v, back)
			}
		}
	}
}

func TestTupleHashInvertLastExact(t *testing.T) {
	err := quick.Check(func(seed uint64, a, b, c uint32, target uint32) bool {
		rng := sim.NewRNG(seed)
		h := NewTupleHash(rng, 4, 8)
		tgt := target & 0xff
		z := h.InvertLast(tgt, a, b, c)
		return h.Hash(a, b, c, z) == tgt && z < 1<<8
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTupleHashDeterministic(t *testing.T) {
	h1 := NewTupleHash(sim.NewRNG(7), 3, 10)
	h2 := NewTupleHash(sim.NewRNG(7), 3, 10)
	for i := uint32(0); i < 100; i++ {
		if h1.Hash(i, i*3, i&1023) != h2.Hash(i, i*3, i&1023) {
			t.Fatal("same-seed hashes diverge")
		}
	}
}

func TestTupleHashSeedsDiffer(t *testing.T) {
	h1 := NewTupleHash(sim.NewRNG(1), 2, 12)
	h2 := NewTupleHash(sim.NewRNG(2), 2, 12)
	same := 0
	for i := uint32(0); i < 1000; i++ {
		if h1.Hash(i*2654435761, i&4095) == h2.Hash(i*2654435761, i&4095) {
			same++
		}
	}
	// 12-bit output: random collision rate ~1/4096 per draw; identical
	// functions would match 1000/1000.
	if same > 30 {
		t.Fatalf("independently-keyed hashes agree on %d/1000 inputs", same)
	}
}

func TestTupleHashArityPanics(t *testing.T) {
	h := NewTupleHash(sim.NewRNG(1), 3, 8)
	for _, fn := range []func(){
		func() { h.Hash(1, 2) },
		func() { h.InvertLast(0, 1, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("arity mismatch did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestLabelComposition(t *testing.T) {
	w := DefaultWidths()
	err := quick.Check(func(sp, fp uint32) bool {
		sp &= 1<<w.SPart - 1
		fp &= 1<<w.FPart - 1
		l := ComposeLabel(sp, fp, w)
		gotSp, gotFp := SplitLabel(l, w)
		return l <= addr.MaxLabel && gotSp == sp && gotFp == fp
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorLabelInClass(t *testing.T) {
	w := DefaultWidths()
	rng := sim.NewRNG(42)
	p := NewParams(rng.Stream("mn1"), w)
	g := NewGenerator(p, 17, rng.Stream("gen"))
	src, dst := addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 8)
	for flow := uint32(0); flow < 64; flow++ {
		l := g.Label(flow, src, dst)
		if l > addr.MaxLabel {
			t.Fatalf("invalid label %v", l)
		}
		if got := p.ClassOf(l); got != 17 {
			t.Fatalf("label %v classifies as %d, want 17", l, got)
		}
		if got := p.FlowIDOf(src, dst, l); got != flow {
			t.Fatalf("label %v decodes flow %d, want %d", l, got, flow)
		}
	}
}

// TestDisjointFlowTuples is the paper's core collision-avoidance claim:
// m-address tuples minted for different flow IDs on the same MN never
// coincide, so each m-flow has a unique match entry.
func TestDisjointFlowTuples(t *testing.T) {
	w := DefaultWidths()
	rng := sim.NewRNG(3)
	p := NewParams(rng.Stream("params"), w)
	g := NewGenerator(p, 5, rng.Stream("gen"))
	pool := make([]addr.IP, 16)
	for i := range pool {
		pool[i] = addr.V4(10, 0, 0, byte(i+1))
	}
	type tuple struct {
		s, d addr.IP
		l    addr.Label
	}
	owner := make(map[tuple]uint32)
	for flow := uint32(0); flow < w.MaxFlowIDs(); flow++ {
		for rep := 0; rep < 20; rep++ {
			s, d, l := g.MAddr(flow, pool, pool)
			tp := tuple{s, d, l}
			if prev, taken := owner[tp]; taken && prev != flow {
				t.Fatalf("tuple %v owned by flows %d and %d", tp, prev, flow)
			}
			owner[tp] = flow
		}
	}
}

// TestDisjointMNLabelSets: labels minted by MNs with different S_IDs are
// disjoint under every MN's classifier, preventing cross-MN m-address
// collisions (paper Fig 3c).
func TestDisjointMNLabelSets(t *testing.T) {
	w := DefaultWidths()
	rng := sim.NewRNG(9)
	p := NewParams(rng.Stream("shared"), w) // same params: classes partition labels
	g1 := NewGenerator(p, 1, rng.Stream("g1"))
	g2 := NewGenerator(p, 2, rng.Stream("g2"))
	src, dst := addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 2)
	set1 := map[addr.Label]bool{}
	for f := uint32(0); f < 200; f++ {
		set1[g1.Label(f%w.MaxFlowIDs(), src, dst)] = true
	}
	for f := uint32(0); f < 200; f++ {
		l := g2.Label(f%w.MaxFlowIDs(), src, dst)
		if set1[l] {
			t.Fatalf("label %v minted by both MNs", l)
		}
	}
}

// TestClassPartition: ClassOf partitions the whole label space — every
// label belongs to exactly one class, so CF labels (class C_ID) can never
// collide with any MN's MF labels.
func TestClassPartition(t *testing.T) {
	w := Widths{SID: 4, SPart: 12, FPart: 8}
	p := NewParams(sim.NewRNG(11), w)
	counts := make(map[uint32]int)
	const n = 1 << 12 // all SParts
	for sp := uint32(0); sp < n; sp++ {
		counts[p.ClassOf(ComposeLabel(sp, 0, w))]++
	}
	if len(counts) != 16 {
		t.Fatalf("classes = %d, want 16", len(counts))
	}
	for cls, c := range counts {
		if c != n/16 {
			t.Fatalf("class %d has %d sparts, want %d (balanced partition)", cls, c, n/16)
		}
	}
}

// TestPerMNIndependentFunctions: with independent params (the paper's
// per-MN keying), knowing MN A's partition tells you nothing about MN B's:
// the flow IDs B decodes for A's tuples look uniform.
func TestPerMNIndependentFunctions(t *testing.T) {
	w := DefaultWidths()
	pa := NewParams(sim.NewRNG(100), w)
	pb := NewParams(sim.NewRNG(200), w)
	ga := NewGenerator(pa, 3, sim.NewRNG(300))
	src, dst := addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 9)
	matches := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		l := ga.Label(7, src, dst)
		if pb.FlowIDOf(src, dst, l) == 7 {
			matches++
		}
	}
	// Uniform chance is 1/256; allow generous slack.
	if matches > trials/32 {
		t.Fatalf("MN B decodes MN A's flow ID %d/%d times; functions not independent", matches, trials)
	}
}

func TestGeneratorPanicsOnBadInput(t *testing.T) {
	w := DefaultWidths()
	p := NewParams(sim.NewRNG(1), w)
	g := NewGenerator(p, 1, sim.NewRNG(2))
	for name, fn := range map[string]func(){
		"flow too large": func() { g.Label(w.MaxFlowIDs(), 1, 2) },
		"empty pool":     func() { g.MAddr(1, nil, nil) },
		"sid too large":  func() { NewGenerator(p, w.MaxSIDs(), sim.NewRNG(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMAddrUsesPools(t *testing.T) {
	w := DefaultWidths()
	p := NewParams(sim.NewRNG(1), w)
	g := NewGenerator(p, 1, sim.NewRNG(2))
	srcPool := []addr.IP{addr.V4(10, 0, 0, 1)}
	dstPool := []addr.IP{addr.V4(10, 0, 0, 2)}
	s, d, _ := g.MAddr(3, srcPool, dstPool)
	if s != srcPool[0] || d != dstPool[0] {
		t.Fatalf("MAddr ignored pools: %v %v", s, d)
	}
}

// TestDrawMatchesMAddr: Draw then Label, on a generator seeded alike, mints
// what MAddr mints from the same pools.
func TestDrawMatchesMAddr(t *testing.T) {
	p := NewParams(sim.NewRNG(1), DefaultWidths())
	byPool, byIndex := NewGenerator(p, 1, sim.NewRNG(2)), NewGenerator(p, 1, sim.NewRNG(2))
	srcPool := []addr.IP{addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 2), addr.V4(10, 0, 0, 3)}
	dstPool := []addr.IP{addr.V4(10, 0, 1, 1), addr.V4(10, 0, 1, 2)}
	for flow := uint32(0); flow < 50; flow++ {
		s, d, l := byPool.MAddr(flow, srcPool, dstPool)
		i, j := byIndex.Draw(len(srcPool), len(dstPool))
		if srcPool[i] != s || dstPool[j] != d || byIndex.Label(flow, srcPool[i], dstPool[j]) != l {
			t.Fatalf("flow %d: Draw and Label minted (%v, %v), MAddr (%v, %v, %v)", flow, srcPool[i], dstPool[j], s, d, l)
		}
	}
}

func BenchmarkGeneratorMAddr(b *testing.B) {
	w := DefaultWidths()
	p := NewParams(sim.NewRNG(1), w)
	g := NewGenerator(p, 1, sim.NewRNG(2))
	pool := make([]addr.IP, 64)
	for i := range pool {
		pool[i] = addr.V4(10, 0, byte(i>>8), byte(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.MAddr(uint32(i)&255, pool, pool)
	}
}

func BenchmarkTupleHash(b *testing.B) {
	h := NewTupleHash(sim.NewRNG(1), 4, 8)
	for i := 0; i < b.N; i++ {
		_ = h.Hash(uint32(i), uint32(i)*3, uint32(i)>>2, uint32(i)&255)
	}
}
