package mic

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// The stream transcript oracle. testdata/stream_transcript.golden was
// captured from the map-and-copy stream implementation that preceded the
// sequence-indexed one; a rewrite of the stream's byte path must hand every
// conn the same frames at the same virtual instants. Regenerate only on
// purpose:
//
//	go test ./internal/mic -run TestStreamTranscriptGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recConn digests every frame the stream hands to one conn: the virtual
// instant, the frame length and the frame's CRC-32C.
type recConn struct {
	transport.ByteStream
	eng    *sim.Engine
	sends  int
	bytes  int
	digest uint32
}

func (r *recConn) Send(b []byte) {
	var rec [16]byte
	binary.BigEndian.PutUint64(rec[0:8], uint64(r.eng.Now()))
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(b)))
	binary.BigEndian.PutUint32(rec[12:16], crc32.Checksum(b, castagnoli))
	r.digest = crc32.Update(r.digest, castagnoli, rec[:])
	r.sends++
	r.bytes += len(b)
	r.ByteStream.Send(b)
}

// record interposes a recConn between s and each of its conns. The conns'
// receive callbacks are already bound, so only the send side is wrapped.
func record(s *Stream, eng *sim.Engine) []*recConn {
	recs := make([]*recConn, len(s.conns))
	for i, c := range s.conns {
		recs[i] = &recConn{ByteStream: c, eng: eng}
		s.conns[i] = recs[i]
	}
	return recs
}

var transcriptFaults = []struct {
	name string
	f    netsim.FaultProfile
}{
	{"none", netsim.FaultProfile{}},
	{"loss1", netsim.FaultProfile{Loss: 0.01}},
	{"loss5+reorder", netsim.FaultProfile{Loss: 0.05, Reorder: 0.2}},
}

// streamTranscript runs one transfer (a forward body, then a reply once the
// body has fully arrived) over an F-flow channel whose switch-to-switch
// links all carry fault from the moment the stream opens, and renders what
// both endpoints handed to their conns. A non-zero uniform pads every slice
// of both endpoints to that many bytes (SetUniformSliceSize).
func streamTranscript(t *testing.T, flows int, fault netsim.FaultProfile, uniform int, seed uint64) string {
	const fwdSize, revSize = 160 << 10, 6000
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{PoolDebug: true, Seed: seed})
	mc, err := NewMC(net, Config{MFlows: flows, MNs: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	src, dst := transport.NewStack(net.Host(hosts[0])), transport.NewStack(net.Host(hosts[15]))

	var server, client *Stream
	var serverRecs, clientRecs []*recConn
	var fwdCRC, revCRC uint32
	fwdGot, revGot := 0, 0
	Listen(dst, 80, false, func(s *Stream) {
		server, serverRecs = s, record(s, eng)
		s.SetUniformSliceSize(uniform)
		s.OnData(func(b []byte) {
			fwdCRC = crc32.Update(fwdCRC, castagnoli, b)
			if fwdGot += len(b); fwdGot == fwdSize {
				s.Send(pattern(revSize))
			}
		})
	})
	c := NewClient(src, mc)
	c.Dial(dst.Host.IP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client, clientRecs = s, record(s, eng)
		s.SetUniformSliceSize(uniform)
		if !fault.IsZero() {
			for _, sw := range g.Switches() {
				for port, p := range g.Node(sw).Ports {
					if g.Node(p.Peer).Kind == topo.KindSwitch && sw < p.Peer {
						net.SetLinkFault(sw, port, fault)
					}
				}
			}
		}
		s.OnData(func(b []byte) {
			revCRC = crc32.Update(revCRC, castagnoli, b)
			revGot += len(b)
		})
		s.Send(pattern(fwdSize))
	})
	eng.RunUntil(sim.Time(20 * time.Second))
	if client == nil || server == nil {
		t.Fatalf("F=%d seed=%d: stream never opened", flows, seed)
	}
	if fwdGot != fwdSize || revGot != revSize {
		t.Fatalf("F=%d seed=%d: delivered %d/%d forward, %d/%d reverse", flows, seed, fwdGot, fwdSize, revGot, revSize)
	}

	var b strings.Builder
	side := func(name string, s *Stream, recs []*recConn) {
		for i, r := range recs {
			fmt.Fprintf(&b, "  %s conn%d sends=%d bytes=%d digest=%08x\n", name, i, r.sends, r.bytes, r.digest)
		}
		fmt.Fprintf(&b, "  %s SlicesOut=%v SlicesRetx=%d SlicesDup=%d Retransmits=%d\n",
			name, s.SlicesOut, s.SlicesRetx, s.SlicesDup, s.Retransmits())
	}
	side("client", client, clientRecs)
	side("server", server, serverRecs)
	fmt.Fprintf(&b, "  delivered fwd=%08x rev=%08x\n", fwdCRC, revCRC)
	return b.String()
}

func TestStreamTranscriptGolden(t *testing.T) {
	var b strings.Builder
	for _, flows := range []int{1, 2, 4} {
		for _, fault := range transcriptFaults {
			for seed := uint64(1); seed <= 20; seed++ {
				fmt.Fprintf(&b, "== F=%d fault=%s seed=%d\n", flows, fault.name, seed)
				b.WriteString(streamTranscript(t, flows, fault.f, 0, seed))
			}
		}
	}
	// Uniform slices: payloads far above maxSlice, padded frame lengths.
	for _, uniform := range []int{4096, 16384} {
		for _, fault := range []int{0, 2} {
			fault := transcriptFaults[fault]
			for seed := uint64(1); seed <= 20; seed++ {
				fmt.Fprintf(&b, "== F=2 fault=%s uniform=%d seed=%d\n", fault.name, uniform, seed)
				b.WriteString(streamTranscript(t, 2, fault.f, uniform, seed))
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "stream_transcript.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	run := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "==") {
			run = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("stream transcript diverges in %q at line %d:\n got: %s\nwant: %s", run, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("stream transcript length differs: got %d lines, want %d", len(gl), len(wl))
}
