package onion

import (
	"testing"

	"mic/internal/chunk"
)

// FuzzCellParser feeds a byte stream to the cell parser cut at arbitrary
// offsets, each piece in a fresh chunk of a debug pool that is recycled —
// poisoned — as soon as feed returns, and checks the cells it emits against
// parseCell over the flat stream: the same cells in the same order, every
// byte of a cut cell read while its piece was live.
func FuzzCellParser(f *testing.F) {
	c := cell{circID: 7, cmd: cmdRelay}
	two := append(c.marshal(), (&cell{circID: 8, cmd: cmdCreate}).marshal()...)
	f.Add(c.marshal(), []byte{100})
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, CellSize-1), []byte{1, 2, 3})
	f.Add(two, []byte{255, 255, 7, 0, 3})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var want []cell
		for b := data; len(b) >= CellSize; b = b[CellSize:] {
			want = append(want, parseCell(b))
		}
		pool := chunk.NewPool()
		pool.SetDebug(true)
		var p cellParser
		var got []cell
		for rest, i := data, 0; len(rest) > 0; i++ {
			n := len(rest)
			if i < len(cuts) {
				n = min(n, 1+int(cuts[i])*3)
			}
			c := pool.Get(n)
			s := chunk.Span{C: c, N: n}
			copy(s.Bytes(), rest[:n])
			p.feed(s.Bytes(), func(cl cell) { got = append(got, cl) })
			c.Release()
			rest = rest[n:]
		}
		if len(got) != len(want) {
			t.Fatalf("emitted %d cells from %d bytes, want %d", len(got), len(data), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cell %d differs from the flat parse", i)
			}
		}
		if p.have != len(data)%CellSize {
			t.Fatalf("holds %d bytes of a cut cell, want %d", p.have, len(data)%CellSize)
		}
	})
}

// FuzzOpenBlob checks layer recognition is total on arbitrary blobs.
func FuzzOpenBlob(f *testing.F) {
	good := relayBlob(relayData, []byte("x"))
	f.Add(good[:])
	f.Add(make([]byte, blobLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		var blob [blobLen]byte
		copy(blob[:], data)
		cmd, payload, ok := openBlob(&blob)
		if ok && len(payload) > MaxCellData {
			t.Fatalf("accepted oversized payload %d (cmd %d)", len(payload), cmd)
		}
	})
}
