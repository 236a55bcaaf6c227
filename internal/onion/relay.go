package onion

import (
	"encoding/binary"
	"fmt"

	"mic/internal/addr"
	"mic/internal/sim"
	"mic/internal/transport"
)

// Relay is one onion router running on a host. It accepts link connections
// carrying cells, peels or adds its layer, and forwards — all in user
// space, through a serial processor that bounds its throughput (the root
// cause of Tor's collapse in Fig 9).
type Relay struct {
	Stack *transport.Stack
	Port  uint16
	eng   *sim.Engine
	dir   *Directory

	circuits map[uint32]*relayCirc
	nextID   uint32

	// busyUntil serializes the relay's CPU.
	busyUntil sim.Time

	// wire is the reusable marshal buffer; every ByteStream Send copies
	// synchronously, and relay work is serialized on the engine.
	wire [CellSize]byte

	// Counters.
	CellsForwarded uint64
	CircuitsServed uint64
}

// relayCirc is per-circuit relay state.
type relayCirc struct {
	keys hopKeys

	prev     transport.ByteStream // toward the client
	prevID   uint32
	next     transport.ByteStream // toward the next relay (nil at the end)
	nextID   uint32
	exit     *transport.Conn // exit-side connection (exit relays only)
	awaiting uint8           // relay command we expect to answer (extend/begin)
}

// NewRelay starts a relay server on stack:port, registered in dir.
func newRelay(dir *Directory, stack *transport.Stack, port uint16) *Relay {
	r := &Relay{
		Stack:    stack,
		Port:     port,
		eng:      stack.Host.Net().Eng,
		dir:      dir,
		circuits: make(map[uint32]*relayCirc),
		nextID:   uint32(stack.Host.IP)<<8 + 1,
	}
	stack.Listen(port, func(c *transport.Conn) { r.serveLink(c) })
	return r
}

// IP returns the relay's host address.
func (r *Relay) IP() addr.IP { return r.Stack.Host.IP }

// serveLink parses cells from one inbound link connection. A link carries
// one circuit (a client or an extending relay dials a link per circuit),
// named by the link's first cell. When the peer closes the link, the relay
// closes its side and tears that circuit down beyond it, as a Tor relay
// destroys the circuits of a closed channel.
func (r *Relay) serveLink(conn *transport.Conn) {
	var p cellParser
	var id uint32 // the circuit's ID on this link; client and relay IDs are never 0
	conn.OnData(func(b []byte) {
		p.feed(b, func(c cell) {
			if id == 0 {
				id = c.circID
			}
			r.handleCell(conn, c)
		})
	})
	conn.OnClose(func() {
		conn.Close()
		if rc, ok := r.circuits[id]; ok && rc.prev == conn {
			r.teardown(rc)
		}
	})
}

// teardown closes a circuit's connections beyond this relay.
func (r *Relay) teardown(rc *relayCirc) {
	if rc.exit != nil {
		rc.exit.Close()
	}
	if rc.next != nil {
		rc.next.Close()
	}
}

// busy schedules fn after the relay's serial processor frees up plus cost,
// charging virtual CPU, and then after the pipelined hop delay. The serial
// stage bounds throughput; the hop delay adds latency only.
func (r *Relay) busy(cost sim.Duration, fn func()) {
	r.Stack.Host.Net().CPU.Charge("relay", cost)
	start := r.eng.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	done := start.Add(cost)
	r.busyUntil = done
	r.eng.At(done.Add(RelayHopDelay), fn)
}

func (r *Relay) handleCell(from transport.ByteStream, c cell) {
	switch c.cmd {
	case cmdCreate:
		r.busy(HandshakeCost, func() { r.handleCreate(from, c) })
	case cmdRelay:
		r.busy(RelayCellCost, func() { r.handleRelay(from, c) })
	}
}

func (r *Relay) handleCreate(from transport.ByteStream, c cell) {
	clientPub := c.blob[:32]
	priv := privFor(r.IP(), c.circID, 's')
	keys, err := deriveHopKeys(priv, clientPub)
	if err != nil {
		return // malformed key share: drop the CREATE
	}
	r.circuits[c.circID] = &relayCirc{keys: keys, prev: from, prevID: c.circID}
	r.CircuitsServed++
	reply := cell{circID: c.circID, cmd: cmdCreated}
	copy(reply.blob[:32], priv.PublicKey().Bytes())
	from.Send(reply.marshalInto(&r.wire))
}

func (r *Relay) handleRelay(from transport.ByteStream, c cell) {
	rc, ok := r.circuits[c.circID]
	if !ok {
		return
	}
	if from == rc.prev {
		r.forwardCell(rc, c)
	} else {
		r.backwardCell(rc, c)
	}
}

// forwardCell processes a client-to-exit cell: peel our layer; if the blob
// is now recognized, the cell is ours to act on, else pass it on.
func (r *Relay) forwardCell(rc *relayCirc, c cell) {
	rc.keys.fwd.XORKeyStream(c.blob[:], c.blob[:])
	cmd, data, ok := openBlob(&c.blob)
	if !ok {
		// Wrapped for a later hop: forward along the circuit.
		if rc.next != nil {
			r.CellsForwarded++
			out := cell{circID: rc.nextID, cmd: cmdRelay, blob: c.blob}
			rc.next.Send(out.marshalInto(&r.wire))
		}
		return
	}
	switch cmd {
	case relayExtend:
		r.extend(rc, data)
	case relayBegin:
		r.begin(rc, data)
	case relayData:
		if rc.exit != nil {
			r.CellsForwarded++
			rc.exit.Send(data) // Send copies before it returns
		}
	case relayEnd:
		r.teardown(rc)
	}
}

// backwardCell processes an exit-to-client cell: add our layer, send toward
// the client.
func (r *Relay) backwardCell(rc *relayCirc, c cell) {
	rc.keys.bwd.XORKeyStream(c.blob[:], c.blob[:])
	r.CellsForwarded++
	out := cell{circID: rc.prevID, cmd: cmdRelay, blob: c.blob}
	rc.prev.Send(out.marshalInto(&r.wire))
}

// sendBack wraps a locally-originated reply in our layer and sends it
// toward the client.
func (r *Relay) sendBack(rc *relayCirc, blob [blobLen]byte) {
	rc.keys.bwd.XORKeyStream(blob[:], blob[:])
	out := cell{circID: rc.prevID, cmd: cmdRelay, blob: blob}
	rc.prev.Send(out.marshalInto(&r.wire))
}

// extend opens a link to the next relay and splices the circuit.
func (r *Relay) extend(rc *relayCirc, data []byte) {
	if len(data) < 6+32 {
		return
	}
	nextIP := addr.IP(binary.BigEndian.Uint32(data[0:4]))
	nextPort := binary.BigEndian.Uint16(data[4:6])
	clientPub := append([]byte(nil), data[6:6+32]...)
	r.nextID++
	nextID := r.nextID
	r.Stack.Dial(nextIP, nextPort, func(conn *transport.Conn, err error) {
		if err != nil {
			return // circuit build fails by timeout at the client
		}
		rc.next = conn
		rc.nextID = nextID
		// Alias the outbound circuit ID so backward cells find this state.
		r.circuits[nextID] = rc
		// Parse cells coming back from the next hop.
		var p cellParser
		conn.OnData(func(b []byte) {
			p.feed(b, func(c cell) {
				switch c.cmd {
				case cmdCreated:
					// Relay the handshake reply inward as EXTENDED.
					r.busy(RelayCellCost, func() {
						r.sendBack(rc, relayBlob(relayExtended, c.blob[:32]))
					})
				case cmdRelay:
					r.busy(RelayCellCost, func() { r.handleRelay(conn, c) })
				}
			})
		})
		create := cell{circID: nextID, cmd: cmdCreate}
		copy(create.blob[:32], clientPub)
		conn.Send(create.marshalInto(&r.wire))
	})
}

// begin opens the exit connection to the destination server.
func (r *Relay) begin(rc *relayCirc, data []byte) {
	if len(data) < 6 {
		return
	}
	dstIP := addr.IP(binary.BigEndian.Uint32(data[0:4]))
	dstPort := binary.BigEndian.Uint16(data[4:6])
	r.Stack.Dial(dstIP, dstPort, func(conn *transport.Conn, err error) {
		if err != nil {
			return
		}
		rc.exit = conn
		conn.OnData(func(b []byte) {
			// Chop server bytes into DATA cells flowing back to the client.
			for len(b) > 0 {
				n := min(len(b), MaxCellData)
				chunk := b[:n]
				b = b[n:]
				blob := relayBlob(relayData, chunk)
				r.busy(RelayCellCost, func() { r.sendBack(rc, blob) })
			}
		})
		conn.OnClose(func() {
			r.busy(RelayCellCost, func() { r.sendBack(rc, relayBlob(relayEnd, nil)) })
		})
		r.sendBack(rc, relayBlob(relayConnected, nil))
	})
}

// Directory is the public list of relays, the onion network's trust root.
type Directory struct {
	relays []*Relay
}

// NewDirectory creates an empty relay directory.
func NewDirectory() *Directory { return &Directory{} }

// AddRelay starts a relay on the host behind stack.
func (d *Directory) AddRelay(stack *transport.Stack, port uint16) *Relay {
	r := newRelay(d, stack, port)
	d.relays = append(d.relays, r)
	return r
}

// PickRoute selects n distinct relays, excluding any on the given hosts.
func (d *Directory) PickRoute(rng *sim.RNG, n int, exclude ...addr.IP) ([]*Relay, error) {
	var pool []*Relay
outer:
	for _, r := range d.relays {
		for _, ex := range exclude {
			if r.IP() == ex {
				continue outer
			}
		}
		pool = append(pool, r)
	}
	if len(pool) < n {
		return nil, fmt.Errorf("onion: need %d relays, have %d eligible", n, len(pool))
	}
	perm := rng.Perm(len(pool))
	route := make([]*Relay, n)
	for i := 0; i < n; i++ {
		route[i] = pool[perm[i]]
	}
	return route, nil
}
