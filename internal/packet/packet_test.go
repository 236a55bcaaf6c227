package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"mic/internal/addr"
)

func samplePacket() *Packet {
	return &Packet{
		SrcMAC:  addr.MAC(0x0000aa000001),
		DstMAC:  addr.MAC(0x0000aa000002),
		MPLS:    []addr.Label{1234, 567},
		SrcIP:   addr.V4(10, 0, 0, 1),
		DstIP:   addr.V4(10, 0, 0, 8),
		Proto:   ProtoTCP,
		TTL:     64,
		SrcPort: 40001,
		DstPort: 80,
		Seq:     1000,
		Ack:     2000,
		Flags:   FlagSYN | FlagACK,
		Window:  65535,
		Payload: []byte("hello mimic channel"),
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	wire := p.Marshal()
	if len(wire) != p.WireLen() {
		t.Fatalf("wire length %d != WireLen %d", len(wire), p.WireLen())
	}
	q, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, p, q)
}

func TestMarshalRoundTripNoMPLS(t *testing.T) {
	p := samplePacket()
	p.MPLS = nil
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, p, q)
}

func TestMarshalRoundTripEmptyPayload(t *testing.T) {
	p := samplePacket()
	p.Payload = nil
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	assertEqual(t, p, q)
}

func assertEqual(t *testing.T, p, q *Packet) {
	t.Helper()
	if p.SrcMAC != q.SrcMAC || p.DstMAC != q.DstMAC {
		t.Errorf("MACs differ: %v vs %v", p, q)
	}
	if len(p.MPLS) != len(q.MPLS) {
		t.Fatalf("MPLS stacks differ: %v vs %v", p.MPLS, q.MPLS)
	}
	for i := range p.MPLS {
		if p.MPLS[i] != q.MPLS[i] {
			t.Errorf("MPLS[%d] = %v, want %v", i, q.MPLS[i], p.MPLS[i])
		}
	}
	if p.SrcIP != q.SrcIP || p.DstIP != q.DstIP || p.Proto != q.Proto || p.TTL != q.TTL {
		t.Errorf("IP headers differ: %v vs %v", p, q)
	}
	if p.SrcPort != q.SrcPort || p.DstPort != q.DstPort || p.Seq != q.Seq ||
		p.Ack != q.Ack || p.Flags != q.Flags || p.Window != q.Window {
		t.Errorf("L4 headers differ: %v vs %v", p, q)
	}
	if !bytes.Equal(p.Payload, q.Payload) {
		t.Errorf("payloads differ: %q vs %q", p.Payload, q.Payload)
	}
}

func TestRoundTripProperty(t *testing.T) {
	err := quick.Check(func(srcIP, dstIP uint32, srcP, dstP uint16, seq, ack uint32, flags uint8, label uint32, payload []byte) bool {
		p := &Packet{
			SrcMAC: 1, DstMAC: 2,
			MPLS:  []addr.Label{addr.Label(label) & addr.MaxLabel},
			SrcIP: addr.IP(srcIP), DstIP: addr.IP(dstIP),
			Proto: ProtoTCP, TTL: 64,
			SrcPort: srcP, DstPort: dstP,
			Seq: seq, Ack: ack, Flags: flags,
			Payload: payload,
		}
		if len(payload) > 40000 {
			return true // beyond uint16 total-length field; not a valid frame
		}
		q, err := Unmarshal(p.Marshal())
		return err == nil &&
			q.SrcIP == p.SrcIP && q.DstIP == p.DstIP &&
			q.SrcPort == p.SrcPort && q.DstPort == p.DstPort &&
			q.Seq == p.Seq && q.Ack == p.Ack && q.Flags == p.Flags &&
			q.MPLS[0] == p.MPLS[0] && bytes.Equal(q.Payload, p.Payload)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsTruncated(t *testing.T) {
	wire := samplePacket().Marshal()
	for _, n := range []int{0, 5, 13, 15, 20, 40} {
		if n > len(wire) {
			continue
		}
		if _, err := Unmarshal(wire[:n]); err == nil {
			t.Errorf("Unmarshal accepted %d-byte truncation", n)
		}
	}
}

func TestUnmarshalRejectsUnknownEtherType(t *testing.T) {
	wire := samplePacket().Marshal()
	wire[12], wire[13] = 0x86, 0xdd // IPv6
	if _, err := Unmarshal(wire); err == nil {
		t.Fatal("accepted unknown EtherType")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	q.MPLS[0] = 99
	q.Payload[0] = 'X'
	q.SrcIP = 0
	if p.MPLS[0] == 99 || p.Payload[0] == 'X' || p.SrcIP == 0 {
		t.Fatal("Clone shares state with original")
	}
}

func TestMPLSStackOps(t *testing.T) {
	p := &Packet{}
	if _, ok := p.PopMPLS(); ok {
		t.Fatal("pop on empty stack succeeded")
	}
	p.PushMPLS(10)
	p.PushMPLS(20)
	if top, _ := p.TopMPLS(); top != 20 {
		t.Fatalf("top = %v, want 20", top)
	}
	l, ok := p.PopMPLS()
	if !ok || l != 20 {
		t.Fatalf("pop = %v,%v", l, ok)
	}
	if top, _ := p.TopMPLS(); top != 10 {
		t.Fatalf("top after pop = %v", top)
	}
}

func TestFlowKey(t *testing.T) {
	p := samplePacket()
	k := p.Key()
	if k.Label != 1234 || k.SrcIP != p.SrcIP || k.DstIP != p.DstIP {
		t.Fatalf("Key = %+v", k)
	}
	p.PopMPLS()
	p.PopMPLS()
	if p.Key().Label != NoLabel {
		t.Fatal("labelless key should use NoLabel")
	}
	if NoLabel <= addr.MaxLabel {
		t.Fatal("NoLabel must be outside the valid label range")
	}
}

func TestFiveTupleReverse(t *testing.T) {
	p := samplePacket()
	tu := p.Tuple()
	r := tu.Reverse()
	if r.SrcIP != tu.DstIP || r.DstIP != tu.SrcIP || r.SrcPort != tu.DstPort || r.DstPort != tu.SrcPort {
		t.Fatalf("Reverse = %+v", r)
	}
	if r.Reverse() != tu {
		t.Fatal("double reverse is not identity")
	}
}

func TestWireLen(t *testing.T) {
	p := samplePacket()
	want := 14 + 8 + 20 + 20 + len(p.Payload)
	if p.WireLen() != want {
		t.Fatalf("WireLen = %d, want %d", p.WireLen(), want)
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := samplePacket()
	p.Payload = make([]byte, 1400)
	b.ReportAllocs()
	b.SetBytes(int64(p.WireLen()))
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkClone(b *testing.B) {
	p := samplePacket()
	p.Payload = make([]byte, 1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Clone()
	}
}
