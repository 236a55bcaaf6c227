package chunk

import (
	"strings"
	"testing"
)

// TestPoolReusesBySizeClass: a released chunk comes back to the next Get
// it fits, from its own size's class or the class above; one that does not
// fit stays on its free list.
func TestPoolReusesBySizeClass(t *testing.T) {
	p := NewPool()
	c := p.Get(72)
	c.Release()
	if d := p.Get(72); d != c {
		t.Fatal("a 72-byte Get did not reuse the released 72-byte chunk")
	}
	e := p.Get(72)
	e.Release()
	if d := p.Get(100); d == e {
		t.Fatal("a 100-byte Get took a 72-byte chunk")
	}
	if d := p.Get(64); d != e {
		t.Fatal("a 64-byte Get did not take the free 72-byte chunk of its class")
	}
	big := p.Get(1 << 20)
	big.Release()
	if d := p.Get(1 << 20); d == big {
		t.Fatal("a chunk above the largest class was kept")
	}
	if p.Gets != 7 || p.News != 5 || p.Puts != 3 {
		t.Fatalf("gets %d, news %d, puts %d; want 7, 5, 3", p.Gets, p.News, p.Puts)
	}
}

// TestDebugPoisonsReleasedChunk: with debug on, the last Release fills the
// chunk with poison, so a holder reading past its reference sees poison,
// and a write after that Release makes the next Get that takes it panic.
func TestDebugPoisonsReleasedChunk(t *testing.T) {
	p := NewPool()
	p.SetDebug(true)
	var w Carver
	w.Pool = p
	s := w.Carve(16, 16)
	copy(s.Bytes(), "sixteen bytes ok")
	w.Drop()
	stale := s.Bytes()
	s.C.Release()
	for i, b := range stale {
		if b != poison {
			t.Fatalf("byte %d is %#x after the last Release, want poison", i, b)
		}
	}
	stale[3] = 1
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "written after its last Release") {
			t.Fatalf("Get of a chunk written after release: recovered %v", r)
		}
	}()
	p.Get(16)
}

// TestReleaseOfRecycledChunkPanics: one Release too many is caught at once,
// whether or not debug is on.
func TestReleaseOfRecycledChunkPanics(t *testing.T) {
	c := NewPool().Get(8)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of a one-reference chunk did not panic")
		}
	}()
	c.Release()
}

// TestCarverReusesIdleChunkInPlace: once every span carved from the fill
// chunk is dropped, the next Carve starts at its beginning again; while
// one is held, carving moves on, and a chunk with no room is swapped for
// a new one of the asked size.
func TestCarverReusesIdleChunkInPlace(t *testing.T) {
	p := NewPool()
	w := Carver{Pool: p}
	a := w.Carve(100, 1000)
	a.C.Release()
	b := w.Carve(100, 1000)
	if b.C != a.C || b.Off != 0 {
		t.Fatalf("carve after the only span was dropped: chunk reused %v at offset %d, want the same chunk at 0", b.C == a.C, b.Off)
	}
	c := w.Carve(800, 1000)
	if c.C != b.C || c.Off != 100 {
		t.Fatalf("carve behind a held span: chunk reused %v at offset %d, want the same chunk at 100", c.C == b.C, c.Off)
	}
	d := w.Carve(200, 1000)
	if d.C == c.C || d.Off != 0 || w.fillLen() != 1000 {
		t.Fatalf("carve past the fill chunk's end: same chunk %v, offset %d, fill %d", d.C == c.C, d.Off, w.fillLen())
	}
	for _, s := range []Span{b, c, d} {
		s.C.Release()
	}
	w.Drop()
	if p.Gets != p.Puts {
		t.Fatalf("%d chunks handed out, %d returned", p.Gets, p.Puts)
	}
}

// TestGrowDoublesThenFitsLargeWrites: a writer of small pieces gets chunks
// doubling from its first write up to the largest pooled size; one write
// larger than that gets a chunk of exactly its size.
func TestGrowDoublesThenFitsLargeWrites(t *testing.T) {
	w := Carver{Pool: NewPool()}
	var sizes []int
	for i := 0; i < 2000; i++ {
		s := w.Grow(100) // held: the fill never goes idle
		if s.Off == 0 {
			sizes = append(sizes, w.fillLen())
		}
	}
	want := []int{100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200, 65536, 65536}
	if len(sizes) < len(want) {
		t.Fatalf("fill sizes %v", sizes)
	}
	for i, n := range want {
		if sizes[i] != n {
			t.Fatalf("fill sizes %v, want them to start %v", sizes, want)
		}
	}
	if w.Grow(5 << 20); w.fillLen() != 5<<20 {
		t.Fatalf("a 5 MiB write got a %d-byte chunk", w.fillLen())
	}
}

// TestSteadyCarveAllocFree: carving, holding and dropping spans at a steady
// rate reuses the same chunks and allocates nothing.
func TestSteadyCarveAllocFree(t *testing.T) {
	p := NewPool()
	w := Carver{Pool: p}
	var held [8]Span
	k := 0
	round := func() {
		for i := 0; i < 40; i++ {
			if held[k].C != nil {
				held[k].C.Release()
			}
			held[k] = w.Carve(1400, 32<<10)
			k = (k + 1) % len(held)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a steady carve round allocated %v times, want 0", allocs)
	}
}
