package mic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mic/internal/bytequeue"
)

// FuzzStreamFeed is a differential fuzzer for the receive path. The input
// is a script: each 4-byte step picks a sequence number out of a small
// space (so duplicates, gaps and late fills are common), a payload length,
// the conn the frame arrives on and where that frame is cut into two
// fragments — the second fragment is held back until the conn's next frame,
// so frames of different conns interleave mid-frame. The stream must deliver
// exactly the bytes, and count exactly the duplicates, of a naive map-based
// reassembler that sees whole frames in completion order.
func FuzzStreamFeed(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 5, 1, 3})
	f.Add([]byte{1, 5, 0, 2, 0, 6, 1, 9, 0, 6, 0, 0, 2, 0, 1, 1})
	f.Add([]byte{3, 200, 2, 7, 2, 9, 1, 0, 1, 1, 0, 255, 0, 40, 2, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		const conns = 3
		s := &Stream{
			reasm:    make(map[uint32][]byte),
			parse:    make([]bytequeue.Queue, conns),
			slicesIn: make([]int64, conns),
		}
		var got []byte
		s.OnData(func(b []byte) { got = append(got, b...) })

		// The reference: whole frames, in the order they complete.
		var want []byte
		model := map[uint32][]byte{}
		var next uint32
		var dups int64
		complete := func(seq uint32, payload []byte) {
			if _, held := model[seq]; held || seq < next {
				dups++
				return
			}
			model[seq] = payload
			for p, ok := model[next]; ok; p, ok = model[next] {
				want = append(want, p...)
				delete(model, next)
				next++
			}
		}

		type held struct {
			tail    []byte
			seq     uint32
			payload []byte
		}
		var pending [conns]*held
		flush := func(c int) {
			if h := pending[c]; h != nil {
				pending[c] = nil
				s.feed(c, h.tail)
				complete(h.seq, h.payload)
			}
		}
		for step := 0; len(script) >= 4; step++ {
			seq, n, c, cut := uint32(script[0]%24), int(script[1]), int(script[2])%conns, int(script[3])
			script = script[4:]
			flush(c)
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(step*31 + i)
			}
			frame := make([]byte, sliceHeaderLen+n+cut%3) // sometimes padded
			binary.BigEndian.PutUint32(frame[0:4], seq)
			binary.BigEndian.PutUint16(frame[4:6], uint16(n))
			binary.BigEndian.PutUint16(frame[6:8], uint16(len(frame)-sliceHeaderLen))
			copy(frame[sliceHeaderLen:], payload)
			cut %= len(frame) + 1
			s.feed(c, frame[:cut])
			if cut == len(frame) {
				complete(seq, payload)
				continue
			}
			pending[c] = &held{tail: frame[cut:], seq: seq, payload: payload}
		}
		for c := range pending {
			flush(c)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delivered %d bytes, reference %d; first difference at %d", len(got), len(want), diffAt(got, want))
		}
		if s.SlicesDup != dups {
			t.Fatalf("SlicesDup = %d, reference %d", s.SlicesDup, dups)
		}
		if s.seqIn != next || len(s.reasm) != len(model) {
			t.Fatalf("stream at seq %d holding %d, reference at %d holding %d", s.seqIn, len(s.reasm), next, len(model))
		}
	})
}

func diffAt(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
