package onion

import (
	"encoding/binary"
	"fmt"

	"mic/internal/addr"
	"mic/internal/sim"
	"mic/internal/transport"
)

// Client builds circuits and speaks the onion protocol from an end host.
type Client struct {
	Stack *transport.Stack
	Dir   *Directory
	cfg   Config
	rng   *sim.RNG
}

// NewClient returns an onion client on the host behind stack.
func NewClient(stack *transport.Stack, dir *Directory) *Client {
	return &Client{
		Stack: stack,
		Dir:   dir,
		cfg:   dir.cfg,
		rng:   stack.Host.Net().Stream("onion/" + stack.Host.Name),
	}
}

// Circuit is an established onion circuit with an open exit connection.
// It satisfies transport.ByteStream.
type Circuit struct {
	client *Client
	route  []*Relay
	hops   []hopKeys
	link   *transport.Conn
	circID uint32
	parser cellParser
	wire   [CellSize]byte // reusable marshal buffer; link.Send copies synchronously

	onData  func([]byte)
	onClose func()
	closed  bool

	// BytesSent / BytesRecv count application payload.
	BytesSent int64
	BytesRecv int64
}

var _ transport.ByteStream = (*Circuit)(nil)

// Hosts names the circuit's client host, then its relays' hosts, entry first.
func (circ *Circuit) Hosts() []string {
	hosts := []string{circ.client.Stack.Host.Name}
	for _, r := range circ.route {
		hosts = append(hosts, r.Stack.Host.Name)
	}
	return hosts
}

// Dial builds a circuit through nRelays random relays (telescoping: CREATE
// to the first, then one EXTEND round trip per additional relay), then
// BEGINs the connection to the destination server. cb fires when the exit
// reports the connection open — the interval the paper measures as Tor's
// route setup time (Fig 7). The destination is the client's secret: on the
// wire it appears only inside onion-encrypted blobs (the exit, which must
// connect, is the one party that legitimately learns it).
// lint:secret dst
func (c *Client) Dial(nRelays int, dst addr.IP, port uint16, cb func(*Circuit, error)) {
	route, err := c.Dir.PickRoute(c.rng, nRelays, c.Stack.Host.IP, dst)
	if err == nil && len(route) == 0 {
		err = fmt.Errorf("onion: empty route")
	}
	if err != nil {
		cb(nil, err)
		return
	}
	circ := &Circuit{client: c, route: route, circID: c.rng.Uint32() | 1}
	first := route[0]
	c.Stack.Dial(first.IP(), first.Port, func(conn *transport.Conn, err error) {
		if err != nil {
			cb(nil, fmt.Errorf("onion: link to first relay: %w", err))
			return
		}
		circ.link = conn
		conn.OnData(func(b []byte) {
			circ.parser.feed(b, func(cl cell) { circ.handleCell(cl, dst, port, cb) })
		})
		// CREATE to the first relay (X25519 key share for hop 0).
		priv := privFor(c.Stack.Host.IP, circ.circID, 'c')
		create := cell{circID: circ.circID, cmd: cmdCreate}
		copy(create.blob[:32], priv.PublicKey().Bytes())
		c.charge(c.cfg.HandshakeCost)
		conn.Send(create.marshalInto(&circ.wire))
	})
}

func (c *Client) charge(d sim.Duration) {
	c.Stack.Host.Net().CPU.Charge("crypto", d)
}

// handleCell advances the circuit state machine.
func (circ *Circuit) handleCell(cl cell, dst addr.IP, port uint16, cb func(*Circuit, error)) {
	c := circ.client
	switch cl.cmd {
	case cmdCreated:
		// Handshake reply from the first relay.
		priv := privFor(c.Stack.Host.IP, circ.circID, 'c')
		keys, err := deriveHopKeys(priv, cl.blob[:32])
		if err != nil {
			return
		}
		circ.hops = append(circ.hops, keys)
		circ.advance(dst, port)
	case cmdRelay:
		// Peel one layer per established hop until recognized.
		for i := range circ.hops {
			circ.hops[i].bwd.XORKeyStream(cl.blob[:], cl.blob[:])
			c.charge(c.cfg.ClientCellCost)
			cmd, data, ok := openBlob(&cl.blob)
			if !ok {
				continue
			}
			switch cmd {
			case relayExtended:
				hop := len(circ.hops) // the relay we just extended to
				priv := privFor(c.Stack.Host.IP, circ.circID+uint32(hop), 'c')
				keys, err := deriveHopKeys(priv, data[:32])
				if err != nil {
					return
				}
				circ.hops = append(circ.hops, keys)
				circ.advance(dst, port)
			case relayConnected:
				cb(circ, nil)
			case relayData:
				circ.BytesRecv += int64(len(data))
				if circ.onData != nil {
					circ.onData(append([]byte(nil), data...))
				}
			case relayEnd:
				circ.closed = true
				if circ.onClose != nil {
					circ.onClose()
				}
			}
			return
		}
	}
}

// advance sends the next EXTEND, or BEGIN once all hops are built.
// lint:secret dst
func (circ *Circuit) advance(dst addr.IP, port uint16) {
	c := circ.client
	if len(circ.hops) < len(circ.route) {
		next := circ.route[len(circ.hops)]
		priv := privFor(c.Stack.Host.IP, circ.circID+uint32(len(circ.hops)), 'c')
		payload := make([]byte, 6+32)
		binary.BigEndian.PutUint32(payload[0:4], uint32(next.IP()))
		binary.BigEndian.PutUint16(payload[4:6], next.Port)
		copy(payload[6:], priv.PublicKey().Bytes())
		c.charge(c.cfg.HandshakeCost)
		circ.sendRelay(relayExtend, payload, len(circ.hops)) // wrapped for the last built hop
		return
	}
	payload := make([]byte, 6)
	// lint:declassify addrleak onion boundary: the BEGIN payload is wrapped in every hop's layer by sendRelay before touching the wire; only the exit decrypts it
	binary.BigEndian.PutUint32(payload[0:4], uint32(dst))
	binary.BigEndian.PutUint16(payload[4:6], port)
	circ.sendRelay(relayBegin, payload, len(circ.hops))
}

// sendRelay wraps a blob for hop n (1-based: encrypted with layers n..1)
// and sends it down the link.
func (circ *Circuit) sendRelay(cmd uint8, data []byte, n int) {
	blob := relayBlob(cmd, data)
	for i := n - 1; i >= 0; i-- {
		circ.hops[i].fwd.XORKeyStream(blob[:], blob[:])
		circ.client.charge(circ.client.cfg.ClientCellCost)
	}
	out := cell{circID: circ.circID, cmd: cmdRelay, blob: blob}
	circ.link.Send(out.marshalInto(&circ.wire))
}

// Send chops data into DATA cells, onion-wraps each, and ships them.
func (circ *Circuit) Send(data []byte) {
	if circ.closed {
		return
	}
	circ.BytesSent += int64(len(data))
	for len(data) > 0 {
		n := min(len(data), MaxCellData)
		circ.sendRelay(relayData, data[:n], len(circ.hops))
		data = data[n:]
	}
}

// OnData registers the receive callback.
func (circ *Circuit) OnData(fn func([]byte)) { circ.onData = fn }

// OnClose registers a close callback.
func (circ *Circuit) OnClose(fn func()) { circ.onClose = fn }

// Close tears the circuit down.
func (circ *Circuit) Close() {
	if circ.closed {
		return
	}
	circ.closed = true
	circ.sendRelay(relayEnd, nil, len(circ.hops))
	circ.link.Close()
}
