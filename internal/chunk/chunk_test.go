package chunk

import (
	"strings"
	"testing"
)

// TestPoolReusesBySizeClass: Get rounds a request up to its power-of-two
// class and takes a released chunk of that class back from the store,
// whichever pool released it; a request above the largest class gets a
// chunk of exactly its size.
func TestPoolReusesBySizeClass(t *testing.T) {
	p, q := NewPool(), NewPool()
	for n, want := range map[int]int{1: 1, 64: 64, 65: 128, 72: 128, 100: 128, MaxPooled: MaxPooled, MaxPooled + 1: MaxPooled + 1} {
		if c := p.Get(n); len(c.buf) != want {
			t.Fatalf("Get(%d) returned %d bytes, want %d", n, len(c.buf), want)
		}
	}
	const rounds = 100
	for i := 0; i < rounds; i++ {
		p.Get(72 + i%50).Release()
		q.Get(100 - i%30).Release()
	}
	// At most half: the race detector makes the store drop a quarter of
	// what it is given.
	if p.News+q.News > rounds {
		t.Fatalf("%d of %d Gets of one class allocated", p.News+q.News, 2*rounds)
	}
	if p.Puts != rounds || q.Gets != q.Puts {
		t.Fatalf("puts %d, want %d; q gets %d, puts %d", p.Puts, rounds, q.Gets, q.Puts)
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
	// Any pool's Get that takes the chunk back checks it. The store may
	// hand out another chunk of the class first, or drop this one (the race
	// detector makes it drop some), so retry the cycle until one does.
	for try := 0; try < 32; try++ {
		if r := getRecovered(NewPool(), 16); r != nil {
			if !strings.Contains(r.(string), "written after its last Release") {
				t.Fatalf("Get of a chunk written after release: recovered %v", r)
			}
			return
		}
		s = w.Carve(16, 16)
		w.Drop()
		stale = s.Bytes()
		s.C.Release()
		stale[3] = 1
	}
	t.Fatal("no Get took back a chunk written after its last Release")
}

// getRecovered calls p.Get(n) and returns what it panicked with, if it did.
func getRecovered(p *Pool, n int) (r any) {
	defer func() { r = recover() }()
	p.Get(n)
	return nil
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
// one is held, carving moves on into the room the asked size's class left,
// and a chunk with no room is swapped for a new one of that class.
func TestCarverReusesIdleChunkInPlace(t *testing.T) {
	p := NewPool()
	w := Carver{Pool: p}
	a := w.Carve(100, 1000)
	a.C.Release()
	b := w.Carve(100, 1000)
	if b.C != a.C || b.Off != 0 {
		t.Fatalf("carve after the only span was dropped: chunk reused %v at offset %d, want the same chunk at 0", b.C == a.C, b.Off)
	}
	c := w.Carve(900, 1000) // 1000 bytes rounded up to 1024 leave room for 924
	if c.C != b.C || c.Off != 100 {
		t.Fatalf("carve behind a held span: chunk reused %v at offset %d, want the same chunk at 100", c.C == b.C, c.Off)
	}
	d := w.Carve(200, 1000)
	if d.C == c.C || d.Off != 0 || w.fillLen() != 1024 {
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
// doubling from its first write's class up to the largest pooled size; one
// write larger than that gets a chunk of exactly its size.
func TestGrowDoublesThenFitsLargeWrites(t *testing.T) {
	w := Carver{Pool: NewPool()}
	var sizes []int
	for i := 0; i < 2000; i++ {
		s := w.Grow(100) // held: the fill never goes idle
		if s.Off == 0 {
			sizes = append(sizes, w.fillLen())
		}
	}
	want := []int{128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 65536}
	if len(sizes) < len(want) {
		t.Fatalf("fill sizes %v", sizes)
	}
	for i, n := range want {
		if sizes[i] != n {
			t.Fatalf("fill sizes %v, want them to start %v", sizes, want)
		}
	}
	if w.Grow(MaxPooled + 1); w.fillLen() != MaxPooled+1 {
		t.Fatalf("a %d-byte write got a %d-byte chunk", MaxPooled+1, w.fillLen())
	}
}

// raceEnabled reports a build under the race detector, which makes
// sync.Pool, and so the store, drop a quarter of what it is given.
var raceEnabled bool

// TestSteadyCarveAllocFree: carving, holding and dropping spans at a steady
// rate reuses the same chunks and allocates nothing.
func TestSteadyCarveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the store drops chunks under the race detector")
	}
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
