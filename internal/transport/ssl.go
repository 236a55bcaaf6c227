package transport

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"time"

	"mic/internal/addr"
	"mic/internal/bytequeue"
	"mic/internal/chunk"
)

// SSL cost model. Records are really encrypted (AES-256-CTR) and
// authenticated (HMAC-SHA256, truncated) with Go's stdlib crypto so taps
// observe ciphertext; the *time* cost of crypto is charged to the virtual
// CPU account and to a per-connection serial processor, reproducing the
// paper's SSL overheads (Figs 7-9). Constants approximate OpenSSL on the
// paper's Xeon E5-2620.
const (
	sslHandshakeClientCost = 400 * time.Microsecond  // ECDHE/RSA client side
	sslHandshakeServerCost = 1500 * time.Microsecond // RSA private-key op
	sslPerByteCost         = 4 * time.Nanosecond     // AES+HMAC per byte
	sslPerRecordCost       = 2 * time.Microsecond    // record framing
	sslMACLen              = 16
	sslRecordHeaderLen     = 4 // type(1) + length(2) + pad marker(1)
	maxRecordPayload       = 16 * 1024

	recordTypeHandshake = 1
	recordTypeData      = 2
)

// SecureConn is an SSL-style channel over a Conn. Create with DialSSL or
// ListenSSL.
type SecureConn struct {
	C     *Conn
	stack *Stack

	enc, dec   cipher.Stream
	macOut     hash.Hash // HMAC-SHA256, Reset for every record
	macIn      hash.Hash
	mac        [sha256.Size]byte // sum's scratch
	out        chunk.Carver      // where Send seals records
	recvBuf    bytequeue.Queue
	onRecord   func(typ byte, payload []byte) // the current handshake step, then decrypt
	onData     func([]byte)
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
		sc.chargeCrypto(sslHandshakeClientCost)
		c.Send(frameRecord(recordTypeHandshake, priv.PublicKey().Bytes()))
		sc.onRecord = func(typ byte, payload []byte) {
			if typ != recordTypeHandshake || len(payload) != 32 {
				return
			}
			master, err := sharedMaster(priv, payload)
			if err != nil {
				return // malformed key share: ignore record
			}
			sc.deriveKeys(master, true)
			sc.chargeCrypto(sslHandshakeClientCost)
			c.Send(frameRecord(recordTypeHandshake, []byte("finished")))
			sc.handshaken = true
			sc.installDataPath()
			onReady(sc, nil)
		}
		c.OnData(sc.feed)
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
				master, err := sharedMaster(priv, payload)
				if err != nil {
					return
				}
				sc.deriveKeys(master, false)
				sc.chargeCrypto(sslHandshakeServerCost) // certificate signature
				c.Send(frameRecord(recordTypeHandshake, priv.PublicKey().Bytes()))
				step = 1
			case step == 1 && typ == recordTypeHandshake:
				sc.handshaken = true
				sc.installDataPath()
				onReady(sc)
			}
		}
		c.OnData(sc.feed)
	})
}

// newSecureConn wraps c; its records are sealed into chunks of c's pool.
func newSecureConn(c *Conn) *SecureConn {
	sc := &SecureConn{C: c, stack: c.stack}
	sc.out.Pool = c.stack.chunks
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
	sum := sha256.Sum256(seed[:])
	priv, err := ecdh.X25519().NewPrivateKey(sum[:])
	if err != nil {
		panic(err) // X25519 accepts any 32-byte scalar
	}
	return priv
}

// sharedMaster runs the ECDH and hashes the shared secret with both public
// keys into the session master secret.
func sharedMaster(priv *ecdh.PrivateKey, peerPub []byte) ([32]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return [32]byte{}, err
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return [32]byte{}, err
	}
	// Mix both public keys in a canonical (byte-wise sorted) order so the
	// two sides compute the same master.
	a, b := priv.PublicKey().Bytes(), peerPub
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	mix := append(append(shared, a...), b...)
	return sha256.Sum256(mix), nil
}

// deriveKeys computes the session keys from the ECDH master secret.
func (sc *SecureConn) deriveKeys(master [32]byte, isClient bool) {
	kc := sha256.Sum256(append(master[:], 'c'))
	ks := sha256.Sum256(append(master[:], 's'))
	mkc := sha256.Sum256(append(master[:], 'C'))
	mks := sha256.Sum256(append(master[:], 'S'))
	mkStream := func(key [32]byte) cipher.Stream {
		block, err := aes.NewCipher(key[:])
		if err != nil {
			panic(err)
		}
		var iv [aes.BlockSize]byte
		copy(iv[:], master[:aes.BlockSize])
		return cipher.NewCTR(block, iv[:])
	}
	if isClient {
		sc.enc, sc.dec = mkStream(kc), mkStream(ks)
		sc.macOut, sc.macIn = hmac.New(sha256.New, mkc[:]), hmac.New(sha256.New, mks[:])
	} else {
		sc.enc, sc.dec = mkStream(ks), mkStream(kc)
		sc.macOut, sc.macIn = hmac.New(sha256.New, mks[:]), hmac.New(sha256.New, mkc[:])
	}
}

// feed is the underlying conn's receive callback for its whole life: every
// complete record goes to whichever handler is current at its turn. The
// payload aliases the queue and is popped once the handler returns.
func (sc *SecureConn) feed(b []byte) {
	sc.recvBuf.Append(b)
	for {
		typ, payload, ok := splitRecord(&sc.recvBuf)
		if !ok {
			return
		}
		sc.onRecord(typ, payload)
		sc.recvBuf.PopFront(sslRecordHeaderLen + len(payload))
	}
}

// installDataPath switches the record handler to decrypt-and-deliver; the
// record is decrypted in place in the receive queue.
func (sc *SecureConn) installDataPath() {
	sc.onRecord = func(typ byte, payload []byte) {
		if typ != recordTypeData || len(payload) < sslMACLen {
			return
		}
		body, mac := payload[:len(payload)-sslMACLen], payload[len(payload)-sslMACLen:]
		sc.chargeCrypto(sslPerRecordCost + time.Duration(len(body))*sslPerByteCost)
		if !sc.checkMAC(body, mac) {
			return // corrupted record: drop
		}
		sc.dec.XORKeyStream(body, body)
		sc.BytesRecvApp += int64(len(body))
		if sc.onData != nil {
			sc.onData(body)
		}
	}
	sc.C.OnClose(func() {
		if sc.onClose != nil {
			sc.onClose()
		}
	})
}

func (sc *SecureConn) checkMAC(body, mac []byte) bool {
	ok := hmac.Equal(sc.sum(sc.macIn, sc.seqIn, body), mac)
	sc.seqIn++
	return ok
}

// sum returns the truncated MAC of record number seq with body b, computed
// by h, which it resets first, in sc.mac (which also stages seq: a local
// array would escape through the hash.Hash interface).
func (sc *SecureConn) sum(h hash.Hash, seq uint64, b []byte) []byte {
	h.Reset()
	binary.BigEndian.PutUint64(sc.mac[:8], seq)
	h.Write(sc.mac[:8])
	h.Write(b)
	return h.Sum(sc.mac[:0])[:sslMACLen]
}

// Send encrypts and queues application data. Each record is sealed —
// header, ciphertext, MAC — into one span of the secure conn's chunks and
// handed to the conn by reference.
func (sc *SecureConn) Send(data []byte) {
	if !sc.handshaken {
		panic("transport: Send before SSL handshake completion")
	}
	sc.BytesSentApp += int64(len(data))
	for len(data) > 0 {
		n := min(len(data), maxRecordPayload)
		rec := sc.out.Grow(sslRecordHeaderLen + n + sslMACLen)
		b := rec.Bytes()
		putRecordHeader(b, recordTypeData, n+sslMACLen)
		ct := b[sslRecordHeaderLen : sslRecordHeaderLen+n]
		sc.enc.XORKeyStream(ct, data[:n])
		data = data[n:]
		copy(b[sslRecordHeaderLen+n:], sc.sum(sc.macOut, sc.seqOut, ct))
		sc.seqOut++
		sc.chargeCrypto(sslPerRecordCost + time.Duration(n)*sslPerByteCost)
		sc.C.SendSpan(rec)
		rec.C.Release()
	}
}

// OnData registers the plaintext receive callback (ByteStream's contract:
// records arriving with none are dropped; fn's slice dies when fn returns).
func (sc *SecureConn) OnData(fn func([]byte)) { sc.onData = fn }

// OnClose registers a close callback.
func (sc *SecureConn) OnClose(fn func()) { sc.onClose = fn }

// Close closes the underlying connection and drops the chunk records are
// sealed into.
func (sc *SecureConn) Close() {
	sc.C.Close()
	sc.out.Drop()
}

// Chunks returns the chunk pool of the underlying connection.
func (sc *SecureConn) Chunks() *chunk.Pool { return sc.C.Chunks() }

// RemoteAddr returns the remote endpoint of the underlying connection.
func (sc *SecureConn) RemoteAddr() (addr.IP, uint16) { return sc.C.RemoteAddr() }

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

// splitRecord returns the complete record at the front of q, if any, without
// consuming it: it occupies sslRecordHeaderLen+len(payload) bytes.
func splitRecord(q *bytequeue.Queue) (typ byte, payload []byte, ok bool) {
	if q.Len() < sslRecordHeaderLen {
		return 0, nil, false
	}
	n := sslRecordHeaderLen + int(binary.BigEndian.Uint16(q.Front(sslRecordHeaderLen)[1:3]))
	if q.Len() < n {
		return 0, nil, false
	}
	rec := q.Front(n)
	return rec[0], rec[sslRecordHeaderLen:], true
}
