package flowtable

import (
	"fmt"
	"testing"
	"testing/quick"

	"mic/internal/addr"
	"mic/internal/packet"
)

// protoUDP is a protocol number other than TCP, for matches that must miss.
const protoUDP uint8 = 17

func pkt() *packet.Packet {
	return &packet.Packet{
		SrcMAC: 1, DstMAC: 2,
		SrcIP: addr.V4(10, 0, 0, 1), DstIP: addr.V4(10, 0, 0, 8),
		Proto: packet.ProtoTCP, TTL: 64,
		SrcPort: 1234, DstPort: 80,
		Payload: []byte("x"),
	}
}

func TestMatchFields(t *testing.T) {
	p := pkt()
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"any", Match{}, true},
		{"inport hit", Match{Mask: MatchInPort, InPort: 3}, true},
		{"inport miss", Match{Mask: MatchInPort, InPort: 4}, false},
		{"ipsrc hit", Match{Mask: MatchIPSrc, IPSrc: p.SrcIP}, true},
		{"ipsrc miss", Match{Mask: MatchIPSrc, IPSrc: p.SrcIP + 1}, false},
		{"ipdst hit", Match{Mask: MatchIPDst, IPDst: p.DstIP}, true},
		{"tuple hit", Match{Mask: MatchIPSrc | MatchIPDst | MatchTPDst, IPSrc: p.SrcIP, IPDst: p.DstIP, TPDst: 80}, true},
		{"tuple partial miss", Match{Mask: MatchIPSrc | MatchTPDst, IPSrc: p.SrcIP, TPDst: 81}, false},
		{"proto hit", Match{Mask: MatchProto, Proto: packet.ProtoTCP}, true},
		{"proto miss", Match{Mask: MatchProto, Proto: protoUDP}, false},
		{"ethsrc hit", Match{Mask: MatchEthSrc, EthSrc: 1}, true},
		{"ethdst miss", Match{Mask: MatchEthDst, EthDst: 9}, false},
		{"tpsrc hit", Match{Mask: MatchTPSrc, TPSrc: 1234}, true},
		{"nompls hit", Match{Mask: MatchNoMPLS}, true},
		{"mpls on unlabeled", Match{Mask: MatchMPLS, MPLS: 5}, false},
	}
	for _, c := range cases {
		if got := c.m.Covers(p, 3); got != c.want {
			t.Errorf("%s: Covers = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMatchMPLS(t *testing.T) {
	p := pkt()
	p.PushMPLS(77)
	if !(Match{Mask: MatchMPLS, MPLS: 77}).Covers(p, 0) {
		t.Fatal("label match failed")
	}
	if (Match{Mask: MatchMPLS, MPLS: 78}).Covers(p, 0) {
		t.Fatal("wrong label matched")
	}
	if (Match{Mask: MatchNoMPLS}).Covers(p, 0) {
		t.Fatal("NoMPLS matched labeled packet")
	}
	p.PushMPLS(99) // outer label now 99
	if !(Match{Mask: MatchMPLS, MPLS: 99}).Covers(p, 0) {
		t.Fatal("outermost label not used")
	}
}

func TestMatchEqual(t *testing.T) {
	a := Match{Mask: MatchIPSrc | MatchIPDst, IPSrc: 1, IPDst: 2}
	b := Match{Mask: MatchIPSrc | MatchIPDst, IPSrc: 1, IPDst: 2, TPDst: 99} // TPDst unmasked: ignored
	if !a.Equal(b) {
		t.Fatal("Equal ignores unmasked fields incorrectly")
	}
	c := Match{Mask: MatchIPSrc | MatchIPDst, IPSrc: 1, IPDst: 3}
	if a.Equal(c) {
		t.Fatal("Equal missed differing masked field")
	}
	d := Match{Mask: MatchIPSrc, IPSrc: 1}
	if a.Equal(d) {
		t.Fatal("Equal missed differing masks")
	}
}

func TestActionsApply(t *testing.T) {
	p := pkt()
	for _, a := range []Action{
		SetEthSrc(10), SetEthDst(11),
		SetIPSrc(addr.V4(10, 0, 0, 3)), SetIPDst(addr.V4(10, 0, 0, 4)),
		{OpSetTPSrc, 1000}, {OpSetTPDst, 2000},
		PushMPLS(500),
	} {
		a.Apply(p)
	}
	if p.SrcMAC != 10 || p.DstMAC != 11 {
		t.Errorf("MAC rewrite failed: %v", p)
	}
	if p.SrcIP.String() != "10.0.0.3" || p.DstIP.String() != "10.0.0.4" {
		t.Errorf("IP rewrite failed: %v", p)
	}
	if p.SrcPort != 1000 || p.DstPort != 2000 {
		t.Errorf("port rewrite failed: %v", p)
	}
	if l, _ := p.TopMPLS(); l != 500 {
		t.Errorf("push failed: %v", p.MPLS)
	}
	SetMPLS(600).Apply(p)
	if l, _ := p.TopMPLS(); l != 600 {
		t.Errorf("set_mpls failed: %v", p.MPLS)
	}
	PopMPLS().Apply(p)
	if len(p.MPLS) != 0 {
		t.Errorf("pop failed: %v", p.MPLS)
	}
	SetMPLS(700).Apply(p) // set on empty stack pushes
	if l, _ := p.TopMPLS(); l != 700 {
		t.Errorf("set_mpls on empty stack failed: %v", p.MPLS)
	}
}

func TestOutputActionsDoNotMutate(t *testing.T) {
	p := pkt()
	before := *p
	Output(3).Apply(p)
	OutputGroup(1).Apply(p)
	if p.SrcIP != before.SrcIP || p.DstIP != before.DstIP {
		t.Fatal("output action mutated packet")
	}
}

func TestMutationCount(t *testing.T) {
	actions := []Action{SetIPSrc(1), SetIPDst(2), Output(1), SetMPLS(3), OutputGroup(9)}
	if got := MutationCount(actions); got != 3 {
		t.Fatalf("MutationCount = %d, want 3", got)
	}
}

func TestTablePriorityOrder(t *testing.T) {
	tb := NewTable()
	lo := &Entry{Priority: 1, Match: Match{}, Cookie: 1}
	hi := &Entry{Priority: 10, Match: Match{Mask: MatchIPSrc, IPSrc: pkt().SrcIP}, Cookie: 2}
	tb.Insert(lo, 0)
	tb.Insert(hi, 0)
	e, _ := tb.Lookup(pkt(), 0, 0)
	if e != hi {
		t.Fatalf("Lookup returned cookie %d, want high-priority entry", e.Cookie)
	}
}

func TestTableTieBreakByInsertionOrder(t *testing.T) {
	tb := NewTable()
	first := &Entry{Priority: 5, Match: Match{Mask: MatchInPort, InPort: 0}, Cookie: 1}
	second := &Entry{Priority: 5, Match: Match{}, Cookie: 2}
	tb.Insert(first, 0)
	tb.Insert(second, 0)
	if e, _ := tb.Lookup(pkt(), 0, 0); e != first {
		t.Fatalf("tie broken wrong: cookie %d", e.Cookie)
	}
}

func TestTableReplaceSameMatch(t *testing.T) {
	tb := NewTable()
	m := Match{Mask: MatchIPDst, IPDst: 7}
	tb.Insert(&Entry{Priority: 5, Match: m, Cookie: 1}, 0)
	tb.Insert(&Entry{Priority: 5, Match: m, Cookie: 2}, 0)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", tb.Len())
	}
	if tb.Entries()[0].Cookie != 2 {
		t.Fatal("replace kept old entry")
	}
}

func TestTableMissReturnsNil(t *testing.T) {
	tb := NewTable()
	tb.Insert(&Entry{Priority: 1, Match: Match{Mask: MatchIPSrc, IPSrc: 99}}, 0)
	if e, _ := tb.Lookup(pkt(), 0, 0); e != nil {
		t.Fatal("miss returned an entry")
	}
}

func TestTableCounters(t *testing.T) {
	tb := NewTable()
	e := &Entry{Priority: 1, Match: Match{}}
	tb.Insert(e, 0)
	p := pkt()
	tb.Lookup(p, 0, 100)
	tb.Lookup(p, 0, 200)
	if e.Packets != 2 {
		t.Fatalf("Packets = %d", e.Packets)
	}
	if e.Bytes != uint64(2*p.WireLen()) {
		t.Fatalf("Bytes = %d", e.Bytes)
	}
	if e.LastUsed != 200 {
		t.Fatalf("LastUsed = %v", e.LastUsed)
	}
}

func TestTableDeleteByCookie(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 5; i++ {
		tb.Insert(&Entry{Priority: i, Match: Match{Mask: MatchInPort, InPort: i}, Cookie: uint64(i % 2)}, 0)
	}
	if n := tb.DeleteByCookie(0); n != 3 {
		t.Fatalf("deleted %d, want 3", n)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	for _, e := range tb.Entries() {
		if e.Cookie == 0 {
			t.Fatal("cookie 0 survived")
		}
	}
}

func TestTableConflicts(t *testing.T) {
	tb := NewTable()
	m := Match{Mask: MatchIPSrc | MatchIPDst, IPSrc: 1, IPDst: 2}
	tb.Insert(&Entry{Priority: 7, Match: m, Cookie: 1}, 0)
	if len(tb.Conflicts(m, 7)) != 1 {
		t.Fatal("conflict not detected")
	}
	if len(tb.Conflicts(m, 8)) != 0 {
		t.Fatal("different priority reported as conflict")
	}
}

func TestGroupTable(t *testing.T) {
	tb := NewTable()
	g := &Group{ID: 4, Buckets: []Bucket{{Actions: []Action{Output(1)}}, {Actions: []Action{Output(2)}}}}
	tb.SetGroup(g)
	got, ok := tb.Group(4)
	if !ok || len(got.Buckets) != 2 {
		t.Fatalf("Group lookup = %v, %v", got, ok)
	}
	tb.DeleteGroup(4)
	if _, ok := tb.Group(4); ok {
		t.Fatal("deleted group still present")
	}
}

func TestLookupHighestPriorityProperty(t *testing.T) {
	// For random entry sets, Lookup must return a covering entry with
	// maximal priority among covering entries.
	err := quick.Check(func(ports []uint8, prios []uint8) bool {
		if len(ports) > 20 {
			ports = ports[:20]
		}
		tb := NewTable()
		for i, pt := range ports {
			prio := 0
			if i < len(prios) {
				prio = int(prios[i] % 8)
			}
			tb.Insert(&Entry{Priority: prio, Match: Match{Mask: MatchInPort, InPort: int(pt % 4)}, Cookie: uint64(i)}, 0)
		}
		p := pkt()
		got, _ := tb.Lookup(p, 2, 0)
		best := -1
		for _, e := range tb.Entries() {
			if e.Match.Covers(p, 2) && e.Priority > best {
				best = e.Priority
			}
		}
		if best == -1 {
			return got == nil
		}
		return got != nil && got.Priority == best
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup64Entries(b *testing.B) {
	tb := NewTable()
	for i := 0; i < 64; i++ {
		tb.Insert(&Entry{Priority: i, Match: Match{Mask: MatchIPSrc, IPSrc: addr.IP(i + 100)}}, 0)
	}
	tb.Insert(&Entry{Priority: 0, Match: Match{}}, 0)
	p := pkt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(p, 0, 0)
	}
}

// Equal reports whether two matches constrain exactly the same header
// space.
func (m Match) Equal(o Match) bool { return m.equal(&o) }

// Dump renders the table — flow entries in match order, then the group
// table in ascending group ID so the dump is byte-stable across runs.
func (t *Table) Dump() string {
	s := ""
	for _, e := range t.Entries() {
		s += fmt.Sprintf("prio=%d cookie=%d %v ->", e.Priority, e.Cookie, e.Match)
		for _, a := range e.Actions {
			s += " " + a.String()
		}
		s += fmt.Sprintf(" (pkts=%d)\n", e.Packets)
	}
	for _, id := range t.GroupIDs() {
		g := t.groups[id]
		s += fmt.Sprintf("group=%d type=all buckets=%d ->", uint32(id), len(g.Buckets))
		for _, b := range g.Buckets {
			for _, a := range b.Actions {
				s += " " + a.String()
			}
			s += " |"
		}
		s += "\n"
	}
	return s
}
