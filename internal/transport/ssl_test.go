package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mic/internal/chunk"
	"mic/internal/flowtable"
	"mic/internal/netsim"
)

// FuzzRecordReader is a differential fuzzer for the secure conn's receive
// path. The script seals records (any plaintext length, empty included),
// corrupts bytes of some (header, ciphertext or tag), and cuts the flat
// wire bytes at arbitrary offsets into pieces, each copied into a fresh
// debug-pool chunk that is recycled — poisoned — as soon as the reader
// returns unless it kept a reference. What the receiver is handed must
// equal what opening the flat buffer whole yields (a record that fails to
// open is dropped, and the records after it still open), in OnData
// mode and in OnSpan mode, where every third plaintext span is kept to the
// end and must not change. Once everything is released, every chunk is
// back in the pool.
//
// Script: byte 0 picks the mode; then 4-byte steps (length hi, length lo,
// corrupt offset, corrupt mask) seal one record each; cuts gives the piece
// lengths.
func FuzzRecordReader(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 0, 200, 0, 0}, []byte{3, 50})
	f.Add([]byte{1, 0, 40, 5, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 20, 16}, []byte{1, 1, 1, 9, 200})
	f.Add([]byte{0, 64, 0, 0, 0, 0, 3, 1, 4}, []byte{255, 255, 255})
	f.Add([]byte{1, 0, 100, 2, 128, 0, 100, 0, 0, 0, 100, 110, 1}, []byte{0, 20, 0, 60})
	f.Fuzz(func(t *testing.T, script, cuts []byte) {
		if len(script) == 0 {
			return
		}
		r := newRig(t, 1, netsim.Config{})
		pool := r.net.ChunkPool()
		var master [32]byte
		master[0] = script[0]
		tx, rx := recordPair(r, master)
		oracle := &SecureConn{}
		oracle.deriveKeys(master, false)

		var flat []byte
		next := byte(1)
		for s := script[1:]; len(s) >= 4; s = s[4:] {
			pt := make([]byte, (int(s[0])<<8|int(s[1]))%(maxRecordPayload+1))
			for i := range pt {
				pt[i] = next
				next = next*13 + 5
			}
			rec := tx.seal(pt)
			b := append([]byte(nil), rec.Bytes()...)
			rec.C.Release()
			if s[3] != 0 {
				b[int(s[2])%len(b)] ^= s[3]
			}
			flat = append(flat, b...)
		}

		// Open each record of the flat buffer on its own, where it lies:
		// GCM with the sequence-number nonce and the header as additional
		// data.
		var want []byte
		for off := 0; off+sslRecordHeaderLen <= len(flat); {
			n := sslRecordHeaderLen + int(binary.BigEndian.Uint16(flat[off+1:off+3]))
			if off+n > len(flat) {
				break
			}
			hdr, payload := flat[off:off+sslRecordHeaderLen], flat[off+sslRecordHeaderLen:off+n]
			off += n
			if hdr[0] != recordTypeData || len(payload) < sslMACLen {
				continue
			}
			var nonce [gcmNonceLen]byte
			binary.BigEndian.PutUint64(nonce[4:], oracle.seqIn)
			oracle.seqIn++
			if pt, err := oracle.dec.Open(nil, nonce[:], payload, hdr); err == nil {
				want = append(want, pt...)
			}
		}

		var got []byte
		type keptSpan struct {
			sp   chunk.Span
			want []byte
		}
		var kept []keptSpan
		if script[0]&1 == 0 {
			rx.OnData(func(b []byte) { got = append(got, b...) })
		} else {
			rx.OnSpan(func(sp chunk.Span) {
				got = append(got, sp.Bytes()...)
				if len(got)%3 == 0 {
					sp.C.Retain()
					kept = append(kept, keptSpan{sp, append([]byte(nil), sp.Bytes()...)})
				}
			})
		}
		for rest, i := flat, 0; len(rest) > 0; i++ {
			n := len(rest)
			if i < len(cuts) {
				n = min(n, 1+int(cuts[i])*7)
			}
			c := pool.Get(n)
			s := chunk.Span{C: c, N: n}
			copy(s.Bytes(), rest[:n])
			rx.records.feed(s)
			c.Release()
			rest = rest[n:]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("handed %d plaintext bytes, the flat open yields %d; first difference at %d", len(got), len(want), diffAt(got, want))
		}
		for _, k := range kept {
			if !bytes.Equal(k.sp.Bytes(), k.want) {
				t.Fatal("a kept plaintext span changed after the reader moved on")
			}
			k.sp.C.Release()
		}
		rx.records.reset()
		rx.in.Drop()
		tx.out.Drop()
		if pool.Gets != pool.Puts {
			t.Fatalf("%d chunks handed out, %d back in the pool", pool.Gets, pool.Puts)
		}
	})
}

// recordPair returns two secure conns past their handshake that share
// master's keys: tx seals records on r.a, and rx opens what is fed to its
// record reader on r.b, both in chunks of r's pool.
func recordPair(r *rig, master [32]byte) (tx, rx *SecureConn) {
	tx = &SecureConn{stack: r.a}
	tx.out.Pool = r.net.ChunkPool()
	tx.deriveKeys(master, true)
	rx = &SecureConn{stack: r.b, handshaken: true}
	rx.in.Pool = r.net.ChunkPool()
	rx.records.emit = rx.record
	rx.deriveKeys(master, false)
	return tx, rx
}

// TestTamperedRecordIsDropped: two 100-byte records are sealed and the
// first has one byte changed, in its ciphertext or in header byte 3 (the
// pad marker, which no reader looks at). The first must be dropped and the
// second delivered intact: each record opens on its own, and the tag
// covers the whole header.
func TestTamperedRecordIsDropped(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int // the byte of the first record's wire bytes changed
	}{
		{"ciphertext", sslRecordHeaderLen + 10},
		{"header byte 3", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, netsim.Config{})
			pool := r.net.ChunkPool()
			tx, rx := recordPair(r, [32]byte{1})
			var got [][]byte
			rx.OnData(func(b []byte) { got = append(got, append([]byte(nil), b...)) })
			intact := pattern(200)[100:]
			for i, pt := range [][]byte{pattern(100), intact} {
				rec := tx.seal(pt)
				wire := pool.Get(rec.N)
				in := chunk.Span{C: wire, N: rec.N}
				copy(in.Bytes(), rec.Bytes())
				rec.C.Release()
				if i == 0 {
					in.Bytes()[tc.at] ^= 1
				}
				rx.records.feed(in)
				wire.Release()
			}
			if len(got) != 1 || !bytes.Equal(got[0], intact) {
				t.Fatalf("delivered %d records, want only the intact one: %x", len(got), got)
			}
			rx.in.Drop()
			tx.out.Drop()
			if pool.Gets != pool.Puts {
				t.Fatalf("%d chunks handed out, %d back in the pool", pool.Gets, pool.Puts)
			}
		})
	}
}

// TestSSLReceivesClonedSegments: every frame crossing the first switch is
// forwarded as a clone, as a fabric duplicate or a packet-out is, so each
// segment a secure conn receives lies in no chunk, and reordering makes
// some of them wait out of order. A secure conn reads its records only
// from spans: each such payload must be copied into a span and handed
// over, in order and from the out-of-order queue, or bytes vanish and the
// record stream falls out of step. Both directions arrive intact, and once
// both sides close every chunk is back in the pool.
func TestSSLReceivesClonedSegments(t *testing.T) {
	r := newRig(t, 2, netsim.Config{Seed: 3})
	cloneAt(r.net.Switch(r.graph.Switches()[0]).Table)
	for _, node := range r.graph.Nodes {
		for p := range node.Ports {
			r.net.SetLinkFault(node.ID, p, netsim.FaultProfile{Reorder: 0.2})
		}
	}
	const size = 100 << 10
	want := pattern(size)
	var got, back []byte
	r.b.ListenSSL(443, func(sc *SecureConn) {
		sc.OnData(func(b []byte) {
			if got = append(got, b...); len(got) == size {
				sc.Send(want)
			}
		})
		sc.OnClose(sc.Close)
	})
	var client *SecureConn
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = sc
		sc.OnData(func(b []byte) { back = append(back, b...) })
		sc.Send(want)
	})
	r.eng.Run()
	if !bytes.Equal(got, want) || !bytes.Equal(back, want) {
		t.Fatalf("delivered %d and %d bytes intact, want %d each way", len(got), len(back), size)
	}
	client.Close()
	r.eng.Run()
	if pl := r.net.ChunkPool(); pl.Gets != pl.Puts {
		t.Fatalf("%d chunks handed out, %d back in the pool", pl.Gets, pl.Puts)
	}
}

// cloneAt makes a switch forward every packet as a copy: each rule's
// actions move into a one-bucket group, which the switch runs on a clone.
func cloneAt(t *flowtable.Table) {
	for i, e := range t.Entries() {
		id := flowtable.GroupID(i + 1)
		t.SetGroup(&flowtable.Group{ID: id, Buckets: []flowtable.Bucket{{Actions: e.Actions}}})
		e.Actions = []flowtable.Action{flowtable.OutputGroup(id)}
	}
}

// BenchmarkSSLRecordRoundTrip: one op seals a 4 KiB record, carries it
// over a warmed connection (three segments, so the receiver holds a cut
// record's pieces twice), opens it and hands it to the receiver's
// callback. ns/op and allocs/op are per record.
func BenchmarkSSLRecordRoundTrip(b *testing.B) {
	r := newRig(b, 3, netsim.Config{})
	r.net.ChunkPool().SetDebug(false)
	r.net.PacketPool().SetDebug(false)
	got := 0
	r.b.ListenSSL(443, func(sc *SecureConn) { sc.OnData(func(p []byte) { got += len(p) }) })
	var client *SecureConn
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		if err != nil {
			b.Fatalf("dial: %v", err)
		}
		client = sc
	})
	r.eng.Run()
	rec := pattern(4 << 10)
	for range 16 {
		client.Send(rec)
		r.eng.Run()
	}
	got = 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		client.Send(rec)
		r.eng.Run()
	}
	if got != b.N*len(rec) {
		b.Fatalf("delivered %d bytes, want %d", got, b.N*len(rec))
	}
}
