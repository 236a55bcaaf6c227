package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// protoUDP is UDP's IP protocol number.
const protoUDP uint8 = 17

func capture(t *testing.T, limit int) (*Recorder, *netsim.Network) {
	t.Helper()
	g, err := topo.Linear(2)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	router := &ctrlplane.ProactiveRouter{CFLabel: 55}
	if _, err := router.Install(net); err != nil {
		t.Fatal(err)
	}
	rec := New(net, limit)
	rec.AttachAllSwitches()
	a := transport.NewStack(net.Host(g.Hosts()[0]))
	b := transport.NewStack(net.Host(g.Hosts()[1]))
	b.Listen(80, func(c *transport.Conn) { c.OnData(func(p []byte) { c.Send(p) }) })
	a.Dial(b.Host.IP, 80, func(c *transport.Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Send([]byte("trace me"))
	})
	eng.Run()
	return rec, net
}

func TestRecorderCaptures(t *testing.T) {
	rec, _ := capture(t, 0)
	if rec.Len() == 0 {
		t.Fatal("nothing captured")
	}
	txt := rec.Text()
	if !strings.Contains(txt, "s1") || !strings.Contains(txt, "ingress") {
		t.Fatalf("text dump lacks expected fields:\n%s", txt[:200])
	}
}

func TestRecorderLimit(t *testing.T) {
	rec, _ := capture(t, 3)
	if rec.Len() != 3 {
		t.Fatalf("Len = %d, want 3", rec.Len())
	}
	if rec.Truncated() == 0 {
		t.Fatal("no truncation recorded")
	}
}

func TestPcapOutputWellFormed(t *testing.T) {
	rec, _ := capture(t, 0)
	var buf bytes.Buffer
	if err := rec.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < 24 {
		t.Fatal("missing global header")
	}
	if binary.LittleEndian.Uint32(b[0:4]) != pcapMagic {
		t.Fatalf("bad magic %x", b[0:4])
	}
	if binary.LittleEndian.Uint32(b[20:24]) != linkTypeEthernet {
		t.Fatal("bad link type")
	}
	// Walk every record; each frame must re-parse as a packet.
	off := 24
	n := 0
	for off < len(b) {
		if off+16 > len(b) {
			t.Fatal("truncated record header")
		}
		incl := int(binary.LittleEndian.Uint32(b[off+8 : off+12]))
		orig := int(binary.LittleEndian.Uint32(b[off+12 : off+16]))
		if incl != orig {
			t.Fatal("snap mismatch")
		}
		frame := b[off+16 : off+16+incl]
		if _, err := packet.Unmarshal(frame); err != nil {
			t.Fatalf("record %d does not parse: %v", n, err)
		}
		off += 16 + incl
		n++
	}
	if n == 0 {
		t.Fatal("no records written")
	}
	// One ingress event per record.
	ingress := 0
	for _, ev := range rec.evs {
		if ev.Dir == netsim.Ingress {
			ingress++
		}
	}
	if n != ingress {
		t.Fatalf("records = %d, ingress events = %d", n, ingress)
	}
}

func TestPcapTimestampsMonotonic(t *testing.T) {
	rec, _ := capture(t, 0)
	var buf bytes.Buffer
	if err := rec.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	off := 24
	last := int64(-1)
	for off < len(b) {
		sec := int64(binary.LittleEndian.Uint32(b[off : off+4]))
		usec := int64(binary.LittleEndian.Uint32(b[off+4 : off+8]))
		ts := sec*1e6 + usec
		if ts < last {
			t.Fatal("timestamps not monotonic")
		}
		last = ts
		incl := int(binary.LittleEndian.Uint32(b[off+8 : off+12]))
		off += 16 + incl
	}
}

// TestEventsInTimeOrder: frames arriving at a switch closer together than
// its forwarding latency interleave their ingress and egress reports; the
// capture still lists every event in time order.
func TestEventsInTimeOrder(t *testing.T) {
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	sw := net.Switch(g.Switches()[0])
	src, dst := net.Host(g.Hosts()[0]), net.Host(g.Hosts()[1])
	sw.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(g.PortTo(sw.ID, dst.ID))}}, 0)
	dst.SetHandler(func(int, *packet.Packet) {})
	rec := New(net, 0)
	rec.Attach(sw.ID)
	for i := 0; i < 4; i++ {
		src.Send(0, &packet.Packet{SrcIP: src.IP, DstIP: dst.IP, Proto: protoUDP, TTL: 64, Payload: []byte("burst")})
	}
	eng.Run()
	evs := rec.evs
	if len(evs) != 8 {
		t.Fatalf("captured %d events, want 4 ingress + 4 egress", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event %d at %v listed after one at %v", i, evs[i].At, evs[i-1].At)
		}
	}
}
