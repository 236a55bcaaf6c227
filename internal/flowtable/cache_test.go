package flowtable

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mic/internal/addr"
	"mic/internal/packet"
	"mic/internal/sim"
)

// --- differential property test: cached lookup ≡ linear scan -------------

// Small value domains so random entries and packets collide often — the
// interesting regime for a cache.
var diffMasks = []FieldMask{
	0, // match-any
	MatchInPort,
	MatchIPSrc,
	MatchIPDst,
	MatchIPSrc | MatchIPDst,
	MatchIPSrc | MatchIPDst | MatchTPDst,
	MatchEthSrc,
	MatchEthDst | MatchProto,
	MatchProto,
	MatchTPSrc,
	MatchMPLS,
	MatchMPLS | MatchIPDst,
	MatchNoMPLS,
	MatchNoMPLS | MatchIPSrc,
	MatchInPort | MatchMPLS,
}

func randomMatch(rng *rand.Rand) Match {
	return Match{
		Mask:   diffMasks[rng.Intn(len(diffMasks))],
		InPort: rng.Intn(4),
		EthSrc: addr.MAC(rng.Intn(3)),
		EthDst: addr.MAC(rng.Intn(3)),
		IPSrc:  addr.IP(rng.Intn(4)),
		IPDst:  addr.IP(rng.Intn(4)),
		Proto:  []uint8{packet.ProtoTCP, protoUDP}[rng.Intn(2)],
		TPSrc:  uint16(80 + rng.Intn(2)),
		TPDst:  uint16(80 + rng.Intn(2)),
		MPLS:   addr.Label(rng.Intn(3)),
	}
}

func randomEntry(rng *rand.Rand) *Entry {
	e := &Entry{
		Priority: rng.Intn(8),
		Match:    randomMatch(rng),
		Cookie:   uint64(rng.Intn(6)),
	}
	return e
}

func randomPacket(rng *rand.Rand) *packet.Packet {
	p := &packet.Packet{
		SrcMAC: addr.MAC(rng.Intn(3)),
		DstMAC: addr.MAC(rng.Intn(3)),
		SrcIP:  addr.IP(rng.Intn(4)),
		DstIP:  addr.IP(rng.Intn(4)),
		Proto:  []uint8{packet.ProtoTCP, protoUDP}[rng.Intn(2)],
		TTL:    64,
	}
	p.SrcPort = uint16(80 + rng.Intn(2))
	p.DstPort = uint16(80 + rng.Intn(2))
	for n := rng.Intn(3); n > 0; n-- {
		p.PushMPLS(addr.Label(rng.Intn(3)))
	}
	return p
}

// TestDifferentialCachedVsLinear drives random tables through interleaved
// lookups and mutations (insert, replace, cookie delete, group edits) and checks every cached/classifier Lookup against the linear
// priority scan oracle. This is the equivalence proof for the whole caching
// design, invalidation included.
func TestDifferentialCachedVsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		tb := NewTable()
		now := sim.Time(0)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			tb.Insert(randomEntry(rng), now)
		}
		for step := 0; step < 300; step++ {
			now += sim.Time(rng.Intn(int(time.Second)))
			p := randomPacket(rng)
			inPort := rng.Intn(4)
			want := tb.lookupLinear(p, inPort)
			got, _ := tb.Lookup(p, inPort, now)
			if got != want {
				t.Fatalf("trial %d step %d: cached Lookup = %+v, linear oracle = %+v\npacket %v inPort %d\ntable:\n%s",
					trial, step, got, want, p, inPort, tb.Dump())
			}
			switch rng.Intn(11) {
			case 0, 1:
				tb.Insert(randomEntry(rng), now)
			case 2:
				tb.DeleteByCookie(uint64(rng.Intn(6)))
			case 3:
				tb.SetGroup(&Group{ID: GroupID(rng.Intn(3))})
			case 4:
				tb.DeleteGroup(GroupID(rng.Intn(3)))
			}
		}
	}
}

// --- invalidation edge cases ---------------------------------------------

func lookupMust(t *testing.T, tb *Table, p *packet.Packet, inPort int, now sim.Time) (*Entry, bool) {
	t.Helper()
	e, hit := tb.Lookup(p, inPort, now)
	return e, hit
}

func TestCacheHitAfterMiss(t *testing.T) {
	tb := NewTable()
	e := &Entry{Priority: 1, Match: Match{Mask: MatchIPDst, IPDst: pkt().DstIP}}
	tb.Insert(e, 0)
	if _, hit := tb.Lookup(pkt(), 0, 0); hit {
		t.Fatal("first lookup reported a cache hit")
	}
	got, hit := tb.Lookup(pkt(), 0, 0)
	if !hit || got != e {
		t.Fatalf("second lookup: entry %v hit %v, want cached %v", got, hit, e)
	}
	if tb.CacheHits != 1 || tb.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", tb.CacheHits, tb.CacheMisses)
	}
}

func TestCacheMissesAreNotCached(t *testing.T) {
	tb := NewTable()
	tb.Insert(&Entry{Priority: 1, Match: Match{Mask: MatchIPSrc, IPSrc: 99}}, 0)
	for i := 0; i < 3; i++ {
		if e, hit := tb.Lookup(pkt(), 0, 0); e != nil || hit {
			t.Fatalf("lookup %d: entry %v hit %v, want table miss on slow path", i, e, hit)
		}
	}
	if tb.CacheMisses != 3 {
		t.Fatalf("CacheMisses = %d, want 3 (misses must stay slow-path upcalls)", tb.CacheMisses)
	}
}

func TestCacheInvalidatedByHigherPriorityInsert(t *testing.T) {
	tb := NewTable()
	lo := &Entry{Priority: 1, Match: Match{}}
	tb.Insert(lo, 0)
	tb.Lookup(pkt(), 0, 0)
	tb.Lookup(pkt(), 0, 0) // cached

	hi := &Entry{Priority: 9, Match: Match{Mask: MatchIPDst, IPDst: pkt().DstIP}}
	tb.Insert(hi, 0)
	got, hit := tb.Lookup(pkt(), 0, 0)
	if hit {
		t.Fatal("stale cache entry served after Insert")
	}
	if got != hi {
		t.Fatalf("post-insert lookup = %+v, want new high-priority entry", got)
	}
}

// TestCacheInvalidatedByReplaceInsert covers replace-on-equal-match: the new
// entry takes the old one's place (and tie-break position) and the cache
// must stop serving the replaced pointer.
func TestCacheInvalidatedByReplaceInsert(t *testing.T) {
	tb := NewTable()
	m := Match{Mask: MatchIPDst, IPDst: pkt().DstIP}
	old := &Entry{Priority: 5, Match: m, Cookie: 1}
	tb.Insert(old, 0)
	// A later entry that ties on priority: the replacement must keep winning
	// the tie-break by inheriting old's insertion position.
	tie := &Entry{Priority: 5, Match: Match{}, Cookie: 2}
	tb.Insert(tie, 0)
	tb.Lookup(pkt(), 0, 0)
	tb.Lookup(pkt(), 0, 0) // cached -> old

	repl := &Entry{Priority: 5, Match: m, Cookie: 3}
	tb.Insert(repl, 0)
	got, hit := tb.Lookup(pkt(), 0, 0)
	if hit {
		t.Fatal("stale cache entry served after replace")
	}
	if got != repl {
		t.Fatalf("post-replace lookup cookie = %d, want replacement (cookie 3) to inherit position", got.Cookie)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d after replace, want 2", tb.Len())
	}
}

func TestCacheInvalidatedByCookieDelete(t *testing.T) {
	tb := NewTable()
	hi := &Entry{Priority: 9, Match: Match{Mask: MatchIPDst, IPDst: pkt().DstIP}, Cookie: 7}
	lo := &Entry{Priority: 1, Match: Match{}, Cookie: 8}
	tb.Insert(hi, 0)
	tb.Insert(lo, 0)
	tb.Lookup(pkt(), 0, 0)
	tb.Lookup(pkt(), 0, 0) // cached -> hi

	if n := tb.DeleteByCookie(7); n != 1 {
		t.Fatalf("DeleteByCookie removed %d, want 1", n)
	}
	got, hit := tb.Lookup(pkt(), 0, 0)
	if hit {
		t.Fatal("stale cache entry served after cookie delete")
	}
	if got != lo {
		t.Fatalf("post-delete lookup = %+v, want fallback entry", got)
	}
}

func TestCacheInvalidatedByGroupEdits(t *testing.T) {
	tb := NewTable()
	e := &Entry{Priority: 5, Match: Match{}, Actions: []Action{OutputGroup(4)}}
	tb.Insert(e, 0)
	tb.Lookup(pkt(), 0, 0)
	if _, hit := tb.Lookup(pkt(), 0, 0); !hit {
		t.Fatal("warm-up lookup not cached")
	}

	tb.SetGroup(&Group{ID: 4, Buckets: []Bucket{{Actions: []Action{Output(1)}}}})
	if _, hit := tb.Lookup(pkt(), 0, 0); hit {
		t.Fatal("cache survived SetGroup: group edits must flush the fast path")
	}
	if _, hit := tb.Lookup(pkt(), 0, 0); !hit {
		t.Fatal("cache not repopulated after SetGroup flush")
	}

	tb.DeleteGroup(4)
	if _, hit := tb.Lookup(pkt(), 0, 0); hit {
		t.Fatal("cache survived DeleteGroup")
	}
}

func TestMicroCacheBounded(t *testing.T) {
	tb := NewTable()
	tb.Insert(&Entry{Priority: 1, Match: Match{}}, 0)
	for i := 0; i < microCap+100; i++ {
		p := pkt()
		p.SetSrcIP(addr.IP(i))
		tb.Lookup(p, 0, 0)
	}
	if tb.micro.n > microCap {
		t.Fatalf("microflow cache grew to %d entries, cap is %d", tb.micro.n, microCap)
	}
}

// TestInsertKeepsSortedOrder checks the binary-search insertion against the
// documented invariant directly for a mix of priorities including ties.
func TestInsertKeepsSortedOrder(t *testing.T) {
	tb := NewTable()
	prios := []int{5, 1, 9, 5, 3, 9, 0, 5, 7, 2}
	for i, pr := range prios {
		tb.Insert(&Entry{Priority: pr, Match: Match{Mask: MatchInPort, InPort: i}, Cookie: uint64(i)}, 0)
	}
	es := tb.Entries()
	for i := 1; i < len(es); i++ {
		if entryLess(es[i], es[i-1]) {
			t.Fatalf("entries out of order at %d: %s", i, tb.Dump())
		}
	}
	// Equal priorities must tie-break by insertion order.
	var fives []uint64
	for _, e := range es {
		if e.Priority == 5 {
			fives = append(fives, e.Cookie)
		}
	}
	if fmt.Sprint(fives) != "[0 3 7]" {
		t.Fatalf("tie-break order = %v, want insertion order [0 3 7]", fives)
	}
}

func BenchmarkInsert(b *testing.B) {
	// A whole table built from empty, priorities interleaved.
	b.Run("build128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb := NewTable()
			for j := 0; j < 128; j++ {
				tb.Insert(&Entry{Priority: j % 16, Match: Match{Mask: MatchMPLS, MPLS: addr.Label(j)}}, 0)
			}
		}
	})
	// The MC's case: every m-flow rule outranks the common-routing rules a
	// switch already carries (256 on a fat-tree(8) switch). One op inserts a
	// batch of channels' rules; the untimed half deletes them again.
	b.Run("above256", func(b *testing.B) {
		tb, batch := residentTable(256), mflowBatch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range batch {
				tb.Insert(e, 0)
			}
			b.StopTimer()
			for c := uint64(0); c < batchCookies; c++ {
				tb.DeleteByCookie(2 + c)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/insert")
	})
}

// BenchmarkDeleteByCookie is the other half of BenchmarkInsert/above256: one
// op closes a batch of channels — one DeleteByCookie each, four rules apiece
// — on a switch carrying 256 common-routing rules; the untimed half
// reinstalls them.
func BenchmarkDeleteByCookie(b *testing.B) {
	tb, batch := residentTable(256), mflowBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, e := range batch {
			tb.Insert(e, 0)
		}
		b.StartTimer()
		for c := uint64(0); c < batchCookies; c++ {
			if tb.DeleteByCookie(2+c) != 4 {
				b.Fatal("a channel's four rules were not all deleted")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchCookies), "ns/delete")
}

// residentTable returns a table carrying n common-routing-shaped rules, all
// below m-flow priority and under one cookie.
func residentTable(n int) *Table {
	tb := NewTable()
	for j := 0; j < n; j++ {
		m := Match{Mask: MatchNoMPLS | MatchIPDst, IPDst: addr.IP(j / 2)}
		if j%2 == 1 {
			m = Match{Mask: MatchMPLS | MatchIPDst, MPLS: 7, IPDst: addr.IP(j / 2)}
		}
		tb.Insert(&Entry{Priority: 100 - 50*(j%2), Cookie: 1, Match: m}, 0)
	}
	return tb
}

// batchCookies is how many channels' rules one benchmark op installs or
// deletes, four rules per channel.
const batchCookies = 64

func mflowBatch() []*Entry {
	var batch []*Entry
	for c := 0; c < batchCookies; c++ {
		for j := 0; j < 4; j++ {
			batch = append(batch, &Entry{Priority: 1000, Cookie: uint64(2 + c),
				Match: Match{Mask: MatchIPSrc | MatchIPDst | MatchMPLS, IPSrc: addr.IP(c), IPDst: addr.IP(j), MPLS: addr.Label(c*4 + j)}})
		}
	}
	return batch
}

func BenchmarkLookupCacheHit(b *testing.B) {
	tb := NewTable()
	for i := 0; i < 64; i++ {
		tb.Insert(&Entry{Priority: i, Match: Match{Mask: MatchIPSrc, IPSrc: addr.IP(i + 100)}}, 0)
	}
	tb.Insert(&Entry{Priority: 0, Match: Match{}}, 0)
	p := pkt()
	tb.Lookup(p, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(p, 0, 0)
	}
}

// --- differential test: microCache ≡ map[microKey]microEntry -----------------
//
// The reference is the cache as it was before it became an open-addressed
// table: a Go map from key to (entry, generation), cleared wholesale when a
// store finds microCap keys held. CacheHits and CacheMisses price virt_cpu_ms,
// so the two must agree on every single lookup, not just on what is returned.

type microEntry struct {
	e   *Entry
	gen uint64
}

// microProgram interprets prog as lookups, sweeps of many distinct keys and
// table mutations, and compares the table with the reference after each.
func microProgram(t *testing.T, prog []byte) {
	t.Helper()
	pc := 0
	next := func() int {
		if pc >= len(prog) {
			return 0
		}
		pc++
		return int(prog[pc-1])
	}
	tb := NewTable()
	ref := map[microKey]microEntry{}
	var hits, misses uint64
	lookup := func(p *packet.Packet, inPort int) {
		k := microKeyOf(p, inPort)
		var want *Entry
		wantHit := false
		if me, ok := ref[k]; ok && me.gen == tb.gen {
			hits++
			want, wantHit = me.e, true
		} else {
			misses++
			if want = tb.lookupLinear(p, inPort); want != nil {
				if len(ref) >= microCap {
					clear(ref)
				}
				ref[k] = microEntry{e: want, gen: tb.gen}
			}
		}
		got, hit := tb.Lookup(p, inPort, 0)
		if got != want || hit != wantHit {
			t.Fatalf("op %d: Lookup = %p hit=%v, reference %p hit=%v", pc, got, hit, want, wantHit)
		}
		if tb.CacheHits != hits || tb.CacheMisses != misses {
			t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", pc, tb.CacheHits, tb.CacheMisses, hits, misses)
		}
		if tb.micro.n != len(ref) {
			t.Fatalf("op %d: cache holds %d keys, reference %d", pc, tb.micro.n, len(ref))
		}
	}
	// Rules on two fields only, so that packets differing elsewhere are
	// distinct cache keys with the same answer.
	rule := func(a int) *Entry {
		m := Match{Mask: []FieldMask{MatchIPDst, MatchInPort, MatchIPDst | MatchInPort, 0}[a&3], IPDst: addr.IP(a >> 2 & 3), InPort: a >> 4 & 1}
		return &Entry{Priority: a >> 5 & 3, Match: m, Cookie: uint64(a >> 6 & 1)}
	}
	for pc < len(prog) {
		switch op := next() % 8; op {
		case 0, 1, 2: // one packet out of a small space: repeats are likely
			a := next()
			p := &packet.Packet{SrcIP: addr.IP(a & 7), DstIP: addr.IP(a >> 3 & 3), Proto: packet.ProtoTCP, TTL: 64}
			lookup(p, a>>5&1)
		case 3: // a sweep of up to 16k keys never seen before: fills, and clears, the cache
			base, a := next()<<16|next()<<8, next()
			for i, n := 0, (1+a&63)*256; i < n; i++ {
				p := &packet.Packet{SrcIP: addr.IP(1<<24 + base + i), DstIP: addr.IP(a >> 6 & 3), Proto: packet.ProtoTCP, TTL: 64}
				lookup(p, a>>5&1)
			}
		case 4: // the same sweep again from its start: hits, until a clear or a mutation
			base, a := next()<<16|next()<<8, next()
			for i, n := 0, (1+a&63)*16; i < n; i++ {
				p := &packet.Packet{SrcIP: addr.IP(1<<24 + base + i), DstIP: addr.IP(a >> 6 & 3), Proto: packet.ProtoTCP, TTL: 64}
				lookup(p, a>>5&1)
			}
		case 5:
			tb.Insert(rule(next()), 0)
		case 6:
			tb.DeleteByCookie(uint64(next() & 1))
		case 7:
			tb.SetGroup(&Group{ID: GroupID(next() & 1)})
		}
	}
}

// microCorpus: a catch-all rule, then sweeps that overrun microCap twice with
// re-sweeps and mutations between them; and rules replaced under a warm cache.
var microCorpus = [][]byte{
	{5, 3, 3, 0, 0, 63, 4, 0, 0, 63, 3, 1, 0, 63, 4, 1, 0, 63, 7, 0, 4, 1, 0, 9, 3, 2, 0, 63, 3, 3, 0, 63, 4, 3, 0, 63},
	{5, 4, 0, 9, 0, 9, 5, 36, 0, 9, 1, 9, 6, 0, 0, 9, 5, 0, 0, 41, 0, 41, 7, 1, 0, 41},
}

func TestMicroCacheMatchesMap(t *testing.T) {
	for _, prog := range microCorpus {
		microProgram(t, prog)
	}
	r := sim.NewRNG(18)
	for i := 0; i < 40; i++ {
		prog := make([]byte, 16+r.Intn(120))
		for j := range prog {
			prog[j] = byte(r.Uint64())
		}
		microProgram(t, prog)
	}
}

func FuzzMicroCache(f *testing.F) {
	for _, prog := range microCorpus {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			t.Skip()
		}
		microProgram(t, prog)
	})
}
