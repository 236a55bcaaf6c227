// Package trace records packet captures from netsim taps — the simulator's
// tcpdump. A Recorder attaches to any set of nodes, keeps a bounded ring of
// events, and renders them as text or as a standard pcap byte stream
// (libpcap format, LINKTYPE_ETHERNET) that external tools can open.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"mic/internal/netsim"
	"mic/internal/topo"
)

// Recorder captures tap events from one or more nodes.
type Recorder struct {
	net   *netsim.Network
	limit int
	evs   []netsim.TapEvent
	drops uint64
}

// New creates a recorder keeping at most limit events (0 = unbounded).
func New(net *netsim.Network, limit int) *Recorder {
	return &Recorder{net: net, limit: limit}
}

// Attach mirrors a node's traffic into the recorder.
func (r *Recorder) Attach(node topo.NodeID) {
	r.net.AddTap(node, func(ev netsim.TapEvent) {
		if r.limit > 0 && len(r.evs) >= r.limit {
			r.drops++
			return
		}
		// A node reports an ingress frame when it handles it, one latency
		// after the arrival instant At: keep the capture in At order.
		r.evs = append(r.evs, ev)
		for i := len(r.evs) - 1; i > 0 && r.evs[i-1].At > ev.At; i-- {
			r.evs[i], r.evs[i-1] = r.evs[i-1], r.evs[i]
		}
	})
}

// AttachAllSwitches mirrors every switch.
func (r *Recorder) AttachAllSwitches() {
	for _, sid := range r.net.Graph.Switches() {
		r.Attach(sid)
	}
}

// Len reports how many events were captured.
func (r *Recorder) Len() int { return len(r.evs) }

// Truncated reports how many events were discarded due to the limit.
func (r *Recorder) Truncated() uint64 { return r.drops }

// Text renders a tcpdump-style line per event.
func (r *Recorder) Text() string {
	var b strings.Builder
	for _, ev := range r.evs {
		name := r.net.Graph.Node(ev.Node).Name
		fmt.Fprintf(&b, "%-14v %-8s p%-2d %-7s %v\n", ev.At, name, ev.Port, ev.Dir, ev.Pkt)
	}
	return b.String()
}

// pcap constants.
const (
	pcapMagic        = 0xa1b2c3d4
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	linkTypeEthernet = 1
	pcapSnapLen      = 65535
)

// WritePcap streams the capture in libpcap format. Virtual timestamps map
// to seconds/microseconds since the epoch of the run.
func (r *Recorder) WritePcap(w io.Writer) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEthernet)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for _, ev := range r.evs {
		// Record only ingress so each hop appears once per node.
		if ev.Dir != netsim.Ingress {
			continue
		}
		frame := ev.Pkt.Marshal()
		ns := int64(ev.At)
		binary.LittleEndian.PutUint32(rec[0:4], uint32(ns/1e9))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(ns%1e9/1e3))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
		if _, err := w.Write(rec); err != nil {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	return nil
}
