// Package onion implements the Tor-style overlay baseline the paper
// compares against: telescoping circuit construction through volunteer
// relays, fixed-size cells, per-hop layered encryption, and user-space
// forwarding with finite relay capacity. It reproduces the two behaviours
// the paper measures — setup time that grows linearly with route length
// (Fig 7) and throughput collapse under load (Figs 8, 9) — without linking
// the real Tor implementation.
package onion

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"mic/internal/addr"
)

// The relay cost structure, set in EXPERIMENTS.md "Calibration constants":
// a single-threaded user-space relay on the paper's hardware, saturating
// around 100-150 Mb/s to match the relative Tor-vs-TCP gap of its Mininet
// testbed. No experiment varies them.
const (
	// HandshakeCost is the asymmetric-crypto CPU per CREATE handshake side
	// (Tor: circuit-extend RSA/DH).
	HandshakeCost = 1500 * time.Microsecond

	// RelayCellCost is the per-cell user-space forwarding cost at a relay
	// (syscalls + copies + AES). This bounds relay throughput: a relay
	// moves at most one cell per RelayCellCost.
	RelayCellCost = 30 * time.Microsecond

	// ClientCellCost is the onion wrap/unwrap cost per cell per layer on
	// the client.
	ClientCellCost = 3 * time.Microsecond

	// RelayHopDelay is the pipelined event-loop/queueing latency a cell
	// spends inside each relay in addition to its CPU cost. It models the
	// millisecond-scale delay of a real onion router's scheduling and
	// batching; being pipelined, it raises latency (Fig 8) without
	// bounding bulk throughput (Fig 9a).
	RelayHopDelay = 2 * time.Millisecond
)

// Cell geometry (Tor uses 512-byte cells).
const (
	CellSize      = 512
	cellHeaderLen = 5 // circID(4) cmd(1)
	blobLen       = CellSize - cellHeaderLen

	// Inside the (layer-encrypted) relay blob:
	relayMagic  = 0xaa55aa55
	relayHdrLen = 7 // magic(4) cmd(1) len(2)
	MaxCellData = blobLen - relayHdrLen
)

// Link-level commands.
const (
	cmdCreate  = 1
	cmdCreated = 2
	cmdRelay   = 3
)

// Relay-blob commands (visible only after unwrapping).
const (
	relayExtend    = 1
	relayExtended  = 2
	relayBegin     = 3
	relayConnected = 4
	relayData      = 5
	relayEnd       = 6
)

// cell is one fixed-size link frame.
type cell struct {
	circID uint32
	cmd    uint8
	blob   [blobLen]byte
}

// marshalInto serializes the cell into a caller-owned wire buffer and
// returns it as a slice. Senders that transmit over a ByteStream — whose
// Send contract is to copy synchronously — reuse one buffer per endpoint,
// keeping the per-cell hot path allocation-free.
func (c *cell) marshalInto(out *[CellSize]byte) []byte {
	binary.BigEndian.PutUint32(out[0:4], c.circID)
	out[4] = c.cmd
	copy(out[cellHeaderLen:], c.blob[:])
	return out[:]
}

func parseCell(b []byte) cell {
	var c cell
	c.circID = binary.BigEndian.Uint32(b[0:4])
	c.cmd = b[4]
	copy(c.blob[:], b[cellHeaderLen:CellSize])
	return c
}

// cellParser cuts fixed-size cells out of a byte stream. A cell lying
// inside the bytes it is fed is parsed where it lies; only the head of the
// one a segment boundary cut is kept, in a fixed array, until the bytes
// that complete it arrive.
type cellParser struct {
	cut  [CellSize]byte
	have int // bytes of cut held
}

// feed emits every cell that completes in b, in order. b is read only
// during the call.
func (p *cellParser) feed(b []byte, emit func(cell)) {
	if p.have > 0 {
		k := copy(p.cut[p.have:], b)
		b = b[k:]
		if p.have += k; p.have < CellSize {
			return
		}
		p.have = 0
		emit(parseCell(p.cut[:]))
	}
	for ; len(b) >= CellSize; b = b[CellSize:] {
		emit(parseCell(b))
	}
	p.have = copy(p.cut[:], b)
}

// relayBlob builds a plaintext relay blob.
func relayBlob(cmd uint8, data []byte) [blobLen]byte {
	var blob [blobLen]byte
	if len(data) > MaxCellData {
		panic("onion: relay data exceeds cell capacity")
	}
	binary.BigEndian.PutUint32(blob[0:4], relayMagic)
	blob[4] = cmd
	binary.BigEndian.PutUint16(blob[5:7], uint16(len(data)))
	copy(blob[relayHdrLen:], data)
	return blob
}

// openBlob checks the magic and extracts cmd/data. ok is false when the
// blob is still wrapped in further layers (not for this hop).
func openBlob(blob *[blobLen]byte) (cmd uint8, data []byte, ok bool) {
	if binary.BigEndian.Uint32(blob[0:4]) != relayMagic {
		return 0, nil, false
	}
	n := int(binary.BigEndian.Uint16(blob[5:7]))
	if n > MaxCellData {
		return 0, nil, false
	}
	return blob[4], blob[relayHdrLen : relayHdrLen+n], true
}

// hopKeys holds the symmetric state for one hop of a circuit. Forward is
// the client-to-exit direction.
type hopKeys struct {
	fwd cipher.Stream // peels/applies the forward-direction layer
	bwd cipher.Stream // peels/applies the backward-direction layer
}

// deriveHopKeys computes both directions' cipher streams from the X25519
// shared secret and the two handshake public keys (in canonical order).
// Client and relay reach the same master via the ECDH, so an observer of
// the CREATE/CREATED exchange learns nothing about the hop keys.
func deriveHopKeys(priv *ecdh.PrivateKey, peerPub []byte) (hopKeys, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return hopKeys{}, err
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return hopKeys{}, err
	}
	a, b := priv.PublicKey().Bytes(), peerPub
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	master := sha256.Sum256(append(append(shared, a...), b...))
	mk := func(tag byte) cipher.Stream {
		key := sha256.Sum256(append(master[:], tag))
		block, err := aes.NewCipher(key[:])
		if err != nil {
			panic(err)
		}
		var iv [aes.BlockSize]byte
		copy(iv[:], master[16:])
		iv[0] ^= tag
		return cipher.NewCTR(block, iv[:])
	}
	return hopKeys{fwd: mk('f'), bwd: mk('b')}, nil
}

// privFor derives a deterministic X25519 private key for one handshake
// side. Determinism keeps runs reproducible; only the public key travels.
func privFor(ip addr.IP, circID uint32, tag byte) *ecdh.PrivateKey {
	var seed [9]byte
	binary.BigEndian.PutUint32(seed[0:4], uint32(ip))
	binary.BigEndian.PutUint32(seed[4:8], circID)
	seed[8] = tag
	sum := sha256.Sum256(seed[:])
	priv, err := ecdh.X25519().NewPrivateKey(sum[:])
	if err != nil {
		panic(err) // X25519 accepts any 32-byte scalar
	}
	return priv
}
