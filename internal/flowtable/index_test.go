package flowtable

import (
	"testing"

	"mic/internal/addr"
	"mic/internal/packet"
	"mic/internal/sim"
)

// checkIndex walks the classifier's intrusive index and fails unless it is
// exactly the installed entries, arranged by the two invariants the table
// relies on: the heads chained on a slot hash to that slot and have pairwise
// different matches, and a bucket — one match's entries, linked through lower
// — is in strictly descending priority (so priorities within it are unique).
func checkIndex(t *testing.T, tb *Table) {
	t.Helper()
	indexed := 0
	for _, st := range tb.subs {
		if len(st.slots)&(len(st.slots)-1) != 0 {
			t.Fatalf("shape %v: %d slots, not a power of two", st.mask, len(st.slots))
		}
		if st.heads*4 > len(st.slots)*3 {
			t.Fatalf("shape %v: %d buckets on %d slots, above 3/4 load", st.mask, st.heads, len(st.slots))
		}
		heads := 0
		for i, head := range st.slots {
			for ; head != nil; head = head.chain {
				heads++
				for other := head.chain; other != nil; other = other.chain {
					if other.Match.Equal(head.Match) {
						t.Fatalf("shape %v slot %d: two buckets of one match %v", st.mask, i, head.Match)
					}
				}
				for e := head; e != nil; e = e.lower {
					indexed++
					norm := e.Match.normalized()
					switch {
					case norm.Mask != st.mask:
						t.Fatalf("shape %v holds an entry of shape %v", st.mask, norm.Mask)
					case e.hash != norm.hash() || int(e.hash&uint64(len(st.slots)-1)) != i:
						t.Fatalf("shape %v slot %d: entry %v carries hash %#x, its match hashes to %#x", st.mask, i, e.Match, e.hash, norm.hash())
					case !e.Match.Equal(head.Match):
						t.Fatalf("shape %v: bucket of %v holds %v", st.mask, head.Match, e.Match)
					case e != head && e.chain != nil:
						t.Fatalf("shape %v: %v prio %d is not a head yet sits on a slot chain", st.mask, e.Match, e.Priority)
					case e.lower != nil && e.lower.Priority >= e.Priority:
						t.Fatalf("shape %v: bucket of %v runs prio %d then %d", st.mask, e.Match, e.Priority, e.lower.Priority)
					case int(e.pos) >= len(tb.entries) || tb.entries[e.pos] != e:
						t.Fatalf("shape %v: %v prio %d is indexed but not installed", st.mask, e.Match, e.Priority)
					}
				}
			}
		}
		if heads != st.heads {
			t.Fatalf("shape %v: counts %d buckets, holds %d", st.mask, st.heads, heads)
		}
	}
	if indexed != len(tb.entries) { // a pending deferred batch is counted by Len, not indexed
		t.Fatalf("index holds %d entries, table %d", indexed, len(tb.entries))
	}
}

// churnShapes are three match shapes with a generator of distinct matches
// each: the m-flow three-tuple, untagged common routing, and one no rule of
// this repository uses.
var churnShapes = []func(i int) Match{
	func(i int) Match {
		return Match{Mask: MatchMPLS | MatchIPSrc | MatchIPDst, MPLS: addr.Label(i & 0xfffff), IPSrc: addr.IP(0x0a000000 + i>>3), IPDst: addr.IP(0x0a800000 + i*7)}
	},
	func(i int) Match {
		return Match{Mask: MatchNoMPLS | MatchIPDst, IPDst: addr.IP(0x0a000000 + i)}
	},
	func(i int) Match {
		return Match{Mask: MatchEthDst | MatchTPDst | MatchInPort, EthDst: addr.MAC(0x020000000000 + i*3), TPDst: uint16(i), InPort: i & 3}
	},
}

// packetFor returns a packet that m — of one of churnShapes — covers, and the
// port it arrives on.
func packetFor(m Match) (*packet.Packet, int) {
	p := &packet.Packet{SrcIP: m.IPSrc, DstIP: m.IPDst, DstMAC: m.EthDst, DstPort: m.TPDst, Proto: packet.ProtoTCP, TTL: 64}
	if m.Mask&MatchMPLS != 0 {
		p.PushMPLS(m.MPLS)
	}
	return p, m.InPort
}

// indexChurn builds a table of n distinct matches spread over churnShapes —
// gen(shape, i) is the i-th match of a shape — some of them under two or three
// priorities, a cookie per four consecutive rules, deleting a third of the
// cookies installed so far at every checkpoint: buckets appear, shrink from
// the head, the middle and the tail, and vanish while the slot arrays double
// under them. At every checkpoint the index is walked and the classifier is
// compared with the linear oracle on packets of live and of deleted matches.
// The table is returned as the program leaves it.
func indexChurn(t *testing.T, n int, gen func(shape, i int) Match) *Table {
	tb := NewTable()
	rng := sim.NewRNG(18)
	var installed, deleted []Match
	cookies, rules := 0, 0
	live := map[uint64][]Match{} // the matches of each cookie still installed
	checkpoint := func() {
		t.Helper()
		checkIndex(t, tb)
		es := tb.Entries()
		if len(es) != tb.Len() {
			t.Fatalf("Entries() has %d entries, table %d", len(es), tb.Len())
		}
		for i, e := range es {
			if live[e.Cookie] == nil {
				t.Fatalf("Entries()[%d] carries deleted cookie %d", i, e.Cookie)
			}
			if i > 0 && !entryLess(es[i-1], e) {
				t.Fatalf("Entries() out of match order at %d", i)
			}
		}
		for probe := 0; probe < 150; probe++ {
			from := installed
			if probe%3 == 2 && len(deleted) > 0 {
				from = deleted
			}
			p, inPort := packetFor(from[rng.Intn(len(from))])
			if got, want := tb.lookupClassifier(p, inPort), tb.lookupLinear(p, inPort); got != want {
				t.Fatalf("classifier finds %+v, linear scan %+v, for %v", got, want, p)
			}
		}
	}
	step := n / 16
	for i := 0; i < n; i++ {
		m := gen(i%len(churnShapes), i/len(churnShapes))
		installed = append(installed, m)
		for prio := 10 + i%3; prio >= 10; prio-- {
			if rules%4 == 0 {
				cookies++
			}
			rules++
			live[uint64(cookies)] = append(live[uint64(cookies)], m)
			tb.Insert(&Entry{Priority: prio, Match: m, Cookie: uint64(cookies)}, 0)
		}
		if i%step != step-1 {
			continue
		}
		checkpoint()
		for c := uint64(1); c < uint64(cookies); c++ {
			if ms := live[c]; ms != nil && rng.Intn(3) == 0 {
				delete(live, c)
				deleted = append(deleted, ms...)
				if got := tb.DeleteByCookie(c); got != len(ms) {
					t.Fatalf("DeleteByCookie(%d) removed %d rules of %d", c, got, len(ms))
				}
			}
		}
		checkpoint()
	}
	if doublings := len(tb.subs[0].slots) / 8; doublings < 8 {
		t.Fatalf("the first shape's slot array only grew %d-fold: the program is too small to test growth", doublings)
	}
	return tb
}

func TestIndexChurnAcrossDoublings(t *testing.T) {
	indexChurn(t, 12000, func(shape, i int) Match { return churnShapes[shape](i) })
}

// TestIndexChurnOnOneChain runs the same program with matches chosen so that,
// within a shape, every hash agrees in its low bits: however often the slot
// array doubles, each shape's buckets share a single slot chain.
func TestIndexChurnOnOneChain(t *testing.T) {
	const n, lowBits = 1500, 1<<10 - 1 // 500 buckets a shape: 1024 slots at most
	next := make([]int, len(churnShapes))
	matches := make([][]Match, len(churnShapes))
	tb := indexChurn(t, n, func(shape, i int) Match {
		for len(matches[shape]) <= i {
			m := churnShapes[shape](next[shape])
			next[shape]++
			if norm := m.normalized(); norm.hash()&lowBits == 0 {
				matches[shape] = append(matches[shape], m)
			}
		}
		return matches[shape][i]
	})
	for _, st := range tb.subs {
		for i, head := range st.slots[1:] {
			if head != nil {
				t.Fatalf("shape %v: slot %d is in use, the matches were to share slot 0", st.mask, i+1)
			}
		}
	}
}

// TestTableChurnAllocs pins the cost of a rule's life in the table: on a warm
// table, installing the four rules of a cookie and deleting them by cookie
// allocates nothing — the index is in the entries, which are the caller's.
func TestTableChurnAllocs(t *testing.T) {
	tb := NewTable()
	for c := 2; c < 34; c++ {
		for j := 0; j < 4; j++ {
			tb.Insert(&Entry{Priority: 1000, Cookie: uint64(c), Match: churnShapes[0](c*4 + j)}, 0)
		}
	}
	var own [4]Entry
	round := func() {
		for j := range own {
			own[j] = Entry{Priority: 1000, Cookie: 1, Match: churnShapes[0](j)}
			tb.Insert(&own[j], 0)
		}
		if tb.DeleteByCookie(1) != len(own) {
			t.Fatal("DeleteByCookie missed rules")
		}
	}
	round() // builds the cookie index, recycles its first list
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("install 4 rules + DeleteByCookie allocated %.0f times on a warm table, want 0", allocs)
	}
	checkIndex(t, tb)
}
