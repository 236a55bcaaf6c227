package transport

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"mic/internal/addr"
	"mic/internal/chunk"
)

// SSL cost model. Records are really sealed (AES-256-GCM, TLS 1.2's
// standard suite and TLS 1.3's default) with Go's stdlib crypto so taps
// observe ciphertext; the *time* cost of crypto is charged to the virtual
// CPU account and to a per-connection serial processor, reproducing the
// paper's SSL overheads (Figs 7-9). The charges model OpenSSL on the
// paper's Xeon E5-2620, not the simulator's own AES-GCM (EXPERIMENTS.md
// "Calibration constants").
const (
	SSLHandshakeClientCost = 400 * time.Microsecond  // ECDHE/RSA client side
	SSLHandshakeServerCost = 1500 * time.Microsecond // RSA private-key op
	SSLPerByteCost         = 4 * time.Nanosecond     // the paper's OpenSSL record crypto, per byte
	SSLPerRecordCost       = 2 * time.Microsecond    // record framing
	sslMACLen              = 16                      // the GCM tag
	sslRecordHeaderLen     = 4                       // type(1) + length(2) + pad marker(1); the tag covers it
	gcmNonceLen            = 12                      // four zero bytes, then the record's sequence number
	maxRecordPayload       = 16 * 1024

	recordTypeHandshake = 1
	recordTypeData      = 2
)

// SecureConn is an SSL-style channel over a Conn. Create with DialSSL or
// ListenSSL.
type SecureConn struct {
	C     *Conn
	stack *Stack

	enc, dec   cipher.AEAD              // AES-256-GCM, one key per direction
	nonce      [gcmNonceLen]byte        // nonceFor's staging
	hdr        [sslRecordHeaderLen]byte // open's copy of the record header
	out        chunk.Carver             // where Send seals records
	in         chunk.Carver             // where a record is opened
	records    recordReader
	onRecord   func(typ byte, payload []byte) // the current handshake step
	onData     func([]byte)
	onSpan     func(chunk.Span)
	onClose    func()
	busyUntil  int64 // virtual-ns until which this conn's CPU is busy
	seqOut     uint64
	seqIn      uint64
	handshaken bool

	// Counters.
	BytesSentApp int64
	BytesRecvApp int64
}

// DialSSL opens a TCP connection and runs an ECDHE handshake: ClientHello
// (X25519 key share) -> ServerHello (key share) -> Finished, costing two
// extra round trips plus asymmetric-crypto CPU on both sides, as in the
// paper's SSL baseline. The key exchange is real (crypto/ecdh): an on-path
// observer of the handshake cannot derive the session keys.
func (s *Stack) DialSSL(dst addr.IP, port uint16, onReady func(*SecureConn, error)) {
	s.Dial(dst, port, func(c *Conn, err error) {
		if err != nil {
			onReady(nil, err)
			return
		}
		sc := newSecureConn(c)
		priv := keyFor(c.tuple.SrcIP, c.tuple.SrcPort, 0xC11E)
		// ClientHello.
		sc.chargeCrypto(SSLHandshakeClientCost)
		c.Send(frameRecord(recordTypeHandshake, priv.PublicKey().Bytes()))
		sc.onRecord = func(typ byte, payload []byte) {
			if typ != recordTypeHandshake || len(payload) != 32 {
				return
			}
			master, err := SharedMaster(priv, payload)
			if err != nil {
				return // malformed key share: ignore record
			}
			sc.deriveKeys(master, true)
			sc.chargeCrypto(SSLHandshakeClientCost)
			c.Send(frameRecord(recordTypeHandshake, []byte("finished")))
			sc.handshaken = true
			onReady(sc, nil)
		}
		c.OnSpan(sc.records.feed)
	})
}

// ListenSSL accepts SSL connections on port; onReady fires per connection
// after its handshake completes.
func (s *Stack) ListenSSL(port uint16, onReady func(*SecureConn)) *Listener {
	return s.Listen(port, func(c *Conn) {
		sc := newSecureConn(c)
		priv := keyFor(c.tuple.SrcIP, c.tuple.SrcPort, 0x5E44)
		step := 0
		sc.onRecord = func(typ byte, payload []byte) {
			switch {
			case step == 0 && typ == recordTypeHandshake && len(payload) == 32:
				master, err := SharedMaster(priv, payload)
				if err != nil {
					return
				}
				sc.deriveKeys(master, false)
				sc.chargeCrypto(SSLHandshakeServerCost) // certificate signature
				c.Send(frameRecord(recordTypeHandshake, priv.PublicKey().Bytes()))
				step = 1
			case step == 1 && typ == recordTypeHandshake:
				sc.handshaken = true
				onReady(sc)
			}
		}
		c.OnSpan(sc.records.feed)
	})
}

// newSecureConn wraps c; its records are sealed into, and opened in,
// chunks of c's pool.
func newSecureConn(c *Conn) *SecureConn {
	sc := &SecureConn{C: c, stack: c.stack}
	sc.out.Pool = c.stack.chunks
	sc.in.Pool = c.stack.chunks
	sc.records.emit = sc.record
	c.OnClose(sc.connClosed)
	return sc
}

// keyFor derives a deterministic X25519 private key per connection side.
// Determinism keeps simulation runs reproducible; the derived secret never
// appears on the wire, so taps cannot reconstruct it.
func keyFor(ip addr.IP, port uint16, tag uint32) *ecdh.PrivateKey {
	var seed [12]byte
	binary.BigEndian.PutUint32(seed[0:4], uint32(ip))
	binary.BigEndian.PutUint16(seed[4:6], port)
	binary.BigEndian.PutUint32(seed[6:10], tag)
	return KeyFromSeed(seed[:])
}

// KeyFromSeed returns the X25519 private key whose scalar is sha256(seed).
// The SSL handshake and the onion circuit handshake build their keys this
// way, each from seed bytes of its own; a deterministic seed keeps runs
// reproducible, and only the public key travels.
func KeyFromSeed(seed []byte) *ecdh.PrivateKey {
	sum := sha256.Sum256(seed)
	priv, err := ecdh.X25519().NewPrivateKey(sum[:])
	if err != nil {
		panic(err) // X25519 accepts any 32-byte scalar
	}
	return priv
}

// SharedMaster runs the ECDH of priv with the peer's public key and hashes
// the shared secret with both public keys, in byte-wise sorted order so
// the two sides agree, into the master secret. An observer of the two
// public keys cannot compute it.
func SharedMaster(priv *ecdh.PrivateKey, peerPub []byte) ([32]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return [32]byte{}, err
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return [32]byte{}, err
	}
	a, b := priv.PublicKey().Bytes(), peerPub
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	return sha256.Sum256(append(append(shared, a...), b...)), nil
}

// deriveKeys computes the session keys from the ECDH master secret: each
// direction seals with its own AES-256-GCM key.
func (sc *SecureConn) deriveKeys(master [32]byte, isClient bool) {
	kc := sha256.Sum256(append(master[:], 'c'))
	ks := sha256.Sum256(append(master[:], 's'))
	if !isClient {
		kc, ks = ks, kc
	}
	sc.enc, sc.dec = newGCM(kc), newGCM(ks)
}

// newGCM returns AES-256-GCM under key.
func newGCM(key [32]byte) cipher.AEAD {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead
}

// nonceFor returns record number seq's nonce, four zero bytes and then
// seq, staged in sc.nonce: a local array would escape through cipher.AEAD.
func (sc *SecureConn) nonceFor(seq uint64) []byte {
	binary.BigEndian.PutUint64(sc.nonce[gcmNonceLen-8:], seq)
	return sc.nonce[:]
}

// record handles one complete record, whose bytes — header included — are
// the pieces rec (valid only during the call): a handshake record goes to
// the current handshake step, gathered into bytes of its own; once the
// handshake is done, a data record is opened.
func (sc *SecureConn) record(rec []chunk.Span) {
	if sc.handshaken {
		sc.open(rec)
		return
	}
	b := make([]byte, spansLen(rec))
	readSpans(rec, 0, b)
	sc.onRecord(b[0], b[sslRecordHeaderLen:])
}

// open copies a data record's ciphertext and tag, where the pieces lie,
// once into a span carved from the secure conn's own chunks, opens it there
// with the header as additional data, and hands up its plaintext: to
// OnSpan's receiver if one is registered, else to OnData's. Every record
// has a nonce of its own, so a record that fails to open is dropped and
// the records after it still open. No byte of the sender's chunks is ever
// written.
func (sc *SecureConn) open(rec []chunk.Span) {
	readSpans(rec, 0, sc.hdr[:])
	payload := spansLen(rec) - sslRecordHeaderLen
	if sc.hdr[0] != recordTypeData || payload < sslMACLen {
		return
	}
	n := payload - sslMACLen
	sc.chargeCrypto(SSLPerRecordCost + time.Duration(n)*SSLPerByteCost)
	sp := sc.in.Carve(payload, smallChunk)
	b := sp.Bytes()
	readSpans(rec, sslRecordHeaderLen, b)
	_, err := sc.dec.Open(b[:0], sc.nonceFor(sc.seqIn), b, sc.hdr[:])
	sc.seqIn++
	if err == nil && n > 0 {
		sc.BytesRecvApp += int64(n)
		pt := chunk.Span{C: sp.C, Off: sp.Off, N: n}
		switch {
		case sc.onSpan != nil:
			sc.onSpan(pt)
		case sc.onData != nil:
			sc.onData(pt.Bytes())
		}
	}
	sp.C.Release()
}

// connClosed runs when the underlying conn closes: no more bytes arrive,
// so the pieces of a record they left cut and the chunk records are
// opened in are dropped, and the receiver is told.
func (sc *SecureConn) connClosed() {
	sc.records.reset()
	sc.in.Drop()
	if sc.onClose != nil {
		sc.onClose()
	}
}

// Send encrypts and queues application data. Each record is sealed —
// header, ciphertext, tag — into one span of the secure conn's chunks and
// handed to the conn by reference.
func (sc *SecureConn) Send(data []byte) {
	if !sc.handshaken {
		panic("transport: Send before SSL handshake completion")
	}
	sc.BytesSentApp += int64(len(data))
	for len(data) > 0 {
		n := min(len(data), maxRecordPayload)
		rec := sc.seal(data[:n])
		data = data[n:]
		sc.chargeCrypto(SSLPerRecordCost + time.Duration(n)*SSLPerByteCost)
		sc.C.SendSpan(rec)
		rec.C.Release()
	}
}

// SendSpan encrypts and queues the bytes of s, sealing from them exactly as
// Send seals from data; the caller keeps its reference on s.
func (sc *SecureConn) SendSpan(s chunk.Span) { sc.Send(s.Bytes()) }

// seal seals pt as one data record into a span of the secure conn's
// chunks, holding one reference of its own.
func (sc *SecureConn) seal(pt []byte) chunk.Span {
	n := len(pt)
	rec := sc.out.Grow(sslRecordHeaderLen + n + sslMACLen)
	b := rec.Bytes()
	putRecordHeader(b, recordTypeData, n+sslMACLen)
	sc.enc.Seal(b[:sslRecordHeaderLen], sc.nonceFor(sc.seqOut), pt, b[:sslRecordHeaderLen])
	sc.seqOut++
	return rec
}

// OnData registers the plaintext receive callback (ByteStream's contract:
// records arriving with none are dropped; fn's slice dies when fn returns).
func (sc *SecureConn) OnData(fn func([]byte)) { sc.onData = fn }

// OnSpan registers a receiver for each record's plaintext as a span of the
// secure conn's chunks, so it can keep the bytes past the call by taking a
// reference instead of copying (Conn.OnSpan's contract). It takes
// precedence over OnData's callback.
func (sc *SecureConn) OnSpan(fn func(chunk.Span)) { sc.onSpan = fn }

// OnClose registers a close callback.
func (sc *SecureConn) OnClose(fn func()) { sc.onClose = fn }

// Close closes the underlying connection and drops the chunk records are
// sealed into. What the receive side holds goes when the conn has closed
// both ways (connClosed): the peer's bytes may still arrive until then.
func (sc *SecureConn) Close() {
	sc.C.Close()
	sc.out.Drop()
}

// Chunks returns the chunk pool of the underlying connection.
func (sc *SecureConn) Chunks() *chunk.Pool { return sc.C.Chunks() }

// RemoteAddr returns the remote endpoint of the underlying connection.
func (sc *SecureConn) RemoteAddr() (addr.IP, uint16) { return sc.C.RemoteAddr() }

// Err returns why the underlying connection was torn down (Conn.Err).
func (sc *SecureConn) Err() error { return sc.C.Err() }

// chargeCrypto books virtual CPU for cryptographic work.
func (sc *SecureConn) chargeCrypto(d time.Duration) {
	sc.stack.Host.Net().CPU.Charge("crypto", d)
}

// frameRecord wraps payload in a record header.
func frameRecord(typ byte, payload []byte) []byte {
	if len(payload) > maxRecordPayload+sslMACLen {
		panic(fmt.Sprintf("transport: record payload %d too large", len(payload)))
	}
	out := make([]byte, sslRecordHeaderLen+len(payload))
	putRecordHeader(out, typ, len(payload))
	copy(out[sslRecordHeaderLen:], payload)
	return out
}

// putRecordHeader writes the header of a record of type typ whose payload
// is n bytes.
func putRecordHeader(b []byte, typ byte, n int) {
	b[0] = typ
	binary.BigEndian.PutUint16(b[1:3], uint16(n))
	b[3] = 0
}

// recordReader cuts the records out of the spans a conn hands over (an
// OnSpan receiver). A record lying inside one span is handed to emit as
// that span, where it lies; the pieces of a record that span boundaries
// cut are kept by reference until the bytes that complete it arrive, and
// then handed over together. Nothing is copied.
type recordReader struct {
	emit func(rec []chunk.Span) // rec: the record's bytes, header included, valid during the call
	part []chunk.Span           // the cut record's pieces, each holding a reference
	have int                    // bytes in part
}

// feed takes the bytes in, valid only during the call under the caller's
// reference, and emits every record that completes in them, in order.
func (r *recordReader) feed(in chunk.Span) {
	for in.N > 0 {
		n := r.recordLen(in)
		if n == 0 || r.have+in.N < n { // the record is cut again: keep in
			in.C.Retain()
			r.part = append(r.part, in)
			r.have += in.N
			return
		}
		k := n - r.have
		r.part = append(r.part, chunk.Span{C: in.C, Off: in.Off, N: k})
		in.Off, in.N = in.Off+k, in.N-k
		r.emit(r.part)
		r.part[len(r.part)-1] = chunk.Span{} // in's piece holds no reference of its own
		r.part = r.part[:len(r.part)-1]
		r.reset()
	}
}

// recordLen returns the length of the record that starts with the cut
// pieces and continues with in, zero while its header is incomplete.
func (r *recordReader) recordLen(in chunk.Span) int {
	if r.have+in.N < sslRecordHeaderLen {
		return 0
	}
	var hdr [sslRecordHeaderLen]byte
	k := readSpans(r.part, 0, hdr[:min(r.have, sslRecordHeaderLen)])
	copy(hdr[k:], in.Bytes())
	return sslRecordHeaderLen + int(binary.BigEndian.Uint16(hdr[1:3]))
}

// reset drops the pieces of a cut record.
func (r *recordReader) reset() {
	for i, p := range r.part {
		p.C.Release()
		r.part[i] = chunk.Span{}
	}
	r.part, r.have = r.part[:0], 0
}

// spansLen returns how many bytes the spans hold.
func spansLen(ss []chunk.Span) int {
	n := 0
	for _, s := range ss {
		n += s.N
	}
	return n
}

// readSpans copies the bytes from offset off of the spans' concatenation
// into dst and returns how many it copied.
func readSpans(ss []chunk.Span, off int, dst []byte) int {
	k := 0
	for _, s := range ss {
		if k == len(dst) {
			break
		}
		if off >= s.N {
			off -= s.N
			continue
		}
		k += copy(dst[k:], s.Bytes()[off:])
		off = 0
	}
	return k
}
