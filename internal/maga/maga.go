// Package maga implements the paper's M-Address Generation Algorithm
// (Sec IV-B3): the keyed hash family that partitions the m-address space so
// that every m-flow owns a disjoint set of (m_src_ip, m_dst_ip, mpls)
// three-tuples, and every Mimic Node owns a disjoint set of MPLS labels.
//
// Construction. The paper builds its hashes from XOR and *shift* terms and
// inverts on one variable. A right-shift term discards low bits, so the
// paper's f has values with no exact preimage on the free variable; we keep
// the XOR/rotate-mix spirit but make the free variable's term a bit
// *rotation* (a bijection), so inversion is exact for every target value.
// DESIGN.md records this as a documented deviation.
//
// Label layout. A 20-bit MPLS label is split as [SPart | FPart]:
//
//   - SPart (default 12 bits) encodes which Mimic Node the label belongs
//     to: G(SPart) = S_ID. SPart itself splits into a random sub-part and a
//     computed sub-part so each MN owns many labels, as in the paper's
//     h(x1, x2) split.
//   - FPart (default 8 bits) is the free variable of the four-tuple hash
//     F(m_src, m_dst, SPart, FPart) = flow ID, computed by inversion.
//
// Flow IDs therefore live in an FPart-bit space; the Mimic Controller
// recycles expired IDs exactly as the paper prescribes.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package maga

import (
	"fmt"

	"mic/internal/addr"
	"mic/internal/sim"
)

// Widths configures the label split. SPart+FPart must equal 20 (the MPLS
// label width) and SID must be < SPart.
type Widths struct {
	SID   int // bits of switch-ID space (max 2^SID Mimic Nodes + 1 for CF)
	SPart int // bits of the label identifying the owning MN
	FPart int // bits of the label free for flow-ID inversion
}

// DefaultWidths supports 63 Mimic Nodes (plus the common-flow class) and
// 255 concurrent m-flows.
func DefaultWidths() Widths { return Widths{SID: 6, SPart: 12, FPart: 8} }

// Validate checks the arithmetic constraints.
func (w Widths) Validate() error {
	if w.SPart+w.FPart != 20 {
		return fmt.Errorf("maga: SPart+FPart = %d, want 20", w.SPart+w.FPart)
	}
	if w.SID <= 0 || w.SID >= w.SPart {
		return fmt.Errorf("maga: SID bits %d must be in (0, SPart)", w.SID)
	}
	if w.FPart <= 0 {
		return fmt.Errorf("maga: FPart must be positive")
	}
	return nil
}

// FitWidths returns the widths for a fabric of nSwitches: the smallest SID
// whose class space holds every switch plus the common-flow class, SPart one
// bit wider (the Validate minimum, leaving the rest of the 20-bit label to
// flow IDs). Growing SID shrinks FPart, so large fabrics trade concurrent
// m-flow count for switch count — FatTree(16)'s 320 switches leave 10 flow
// bits. Falls back to DefaultWidths when those already fit.
func FitWidths(nSwitches int) Widths {
	d := DefaultWidths()
	if uint32(nSwitches)+1 <= d.MaxSIDs() {
		return d
	}
	sid := d.SID
	for sid < 19 && (1<<sid) < nSwitches+1 {
		sid++
	}
	return Widths{SID: sid, SPart: sid + 1, FPart: 20 - (sid + 1)}
}

// MaxSIDs returns how many distinct switch classes the widths support
// (one is reserved for common flows).
func (w Widths) MaxSIDs() uint32 { return 1 << w.SID }

// MaxFlowIDs returns the size of the flow-ID space.
func (w Widths) MaxFlowIDs() uint32 { return 1 << w.FPart }

// rotl rotates v left by r within width bits.
func rotl(v uint32, r, width int) uint32 {
	mask := uint32(1)<<width - 1
	v &= mask
	r %= width
	if r == 0 {
		return v
	}
	return ((v << r) | (v >> (width - r))) & mask
}

func rotr(v uint32, r, width int) uint32 { return rotl(v, width-r%width, width) }

// mixTerm is the keyed mixing applied to the fixed variables: a fold to the
// output width followed by two XOR/rotate rounds. It need not be invertible.
type mixTerm struct {
	k1, k2 uint32
	r1, r2 int
}

func (t mixTerm) apply(v uint32, width int) uint32 {
	mask := uint32(1)<<width - 1
	// Fold 32 input bits down to the output width so all input bits count.
	f := v
	for s := width; s < 32; s += width {
		f ^= v >> s
	}
	f &= mask
	return rotl(f^t.k1, t.r1, width) ^ rotl(f^t.k2, t.r2, width)
}

// bijTerm is the bijective term applied to the free variable.
type bijTerm struct {
	k uint32
	r int
}

func (t bijTerm) apply(v uint32, width int) uint32 { return rotl(v^t.k, t.r, width) }

func (t bijTerm) invert(v uint32, width int) uint32 {
	mask := uint32(1)<<width - 1
	return (rotr(v, t.r, width) ^ t.k) & mask
}

// TupleHash maps an n-tuple to a width-bit value and inverts exactly on the
// last variable. It realizes both the paper's f/F (flow uniqueness) and
// g/h (label classification) once parameterized per Mimic Node.
type TupleHash struct {
	width int
	fixed []mixTerm
	last  bijTerm
}

// NewTupleHash derives a keyed hash over nVars variables from rng.
// The last variable is the invertible one and must be width bits wide.
func NewTupleHash(rng *sim.RNG, nVars, width int) TupleHash {
	if nVars < 1 || width < 1 || width > 32 {
		panic(fmt.Sprintf("maga: bad TupleHash shape nVars=%d width=%d", nVars, width))
	}
	h := TupleHash{width: width}
	for i := 0; i < nVars-1; i++ {
		h.fixed = append(h.fixed, mixTerm{
			k1: rng.Uint32(), k2: rng.Uint32(),
			r1: 1 + rng.Intn(width), r2: 1 + rng.Intn(width),
		})
	}
	h.last = bijTerm{k: rng.Uint32() & (1<<width - 1), r: 1 + rng.Intn(width)}
	return h
}

// Width returns the output width in bits.
func (h TupleHash) Width() int { return h.width }

// Hash evaluates the function. len(vals) must equal the arity; the last
// value must fit in Width bits.
func (h TupleHash) Hash(vals ...uint32) uint32 {
	if len(vals) != len(h.fixed)+1 {
		panic(fmt.Sprintf("maga: Hash arity %d, want %d", len(vals), len(h.fixed)+1))
	}
	var acc uint32
	for i, t := range h.fixed {
		acc ^= t.apply(vals[i], h.width)
	}
	return acc ^ h.last.apply(vals[len(vals)-1], h.width)
}

// InvertLast returns the unique value z such that
// Hash(fixed..., z) == target. len(fixed) must be arity-1.
func (h TupleHash) InvertLast(target uint32, fixed ...uint32) uint32 {
	if len(fixed) != len(h.fixed) {
		panic(fmt.Sprintf("maga: InvertLast arity %d, want %d", len(fixed), len(h.fixed)))
	}
	acc := target & (1<<h.width - 1)
	for i, t := range h.fixed {
		acc ^= t.apply(fixed[i], h.width)
	}
	return h.last.invert(acc, h.width)
}

// Params are one Mimic Node's independent hash functions — the paper's
// per-MN keying that stops an adversary who compromises one MN from
// learning the address-space partition of any other.
type Params struct {
	W Widths
	// F(m_src, m_dst, SPart, FPart) = flowID; inverted on FPart.
	F TupleHash
	// G(x1, x2) = S_ID over the SPart split; inverted on x2 (SID bits).
	G TupleHash
}

// NewParams derives per-MN parameters from rng.
func NewParams(rng *sim.RNG, w Widths) Params {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	return Params{
		W: w,
		F: NewTupleHash(rng, 4, w.FPart),
		G: NewTupleHash(rng, 2, w.SID),
	}
}

// SplitLabel decomposes a label into SPart and FPart.
func SplitLabel(l addr.Label, w Widths) (spart, fpart uint32) {
	return uint32(l) >> w.FPart, uint32(l) & (1<<w.FPart - 1)
}

// ComposeLabel assembles a label from SPart and FPart.
func ComposeLabel(spart, fpart uint32, w Widths) addr.Label {
	return addr.Label(spart<<w.FPart | fpart&(1<<w.FPart-1))
}

// splitSPart decomposes SPart into the random sub-part x1 and computed x2.
func splitSPart(spart uint32, w Widths) (x1, x2 uint32) {
	return spart >> w.SID, spart & (1<<w.SID - 1)
}

func composeSPart(x1, x2 uint32, w Widths) uint32 {
	return x1<<w.SID | x2&(1<<w.SID-1)
}

// ClassOf returns which S_ID class a label belongs to under params p —
// what the MC computes to check label ownership.
func (p Params) ClassOf(l addr.Label) uint32 {
	spart, _ := SplitLabel(l, p.W)
	x1, x2 := splitSPart(spart, p.W)
	return p.G.Hash(x1, x2)
}

// FlowIDOf returns the flow ID encoded by an m-address three-tuple under
// params p.
func (p Params) FlowIDOf(src, dst addr.IP, l addr.Label) uint32 {
	spart, fpart := SplitLabel(l, p.W)
	return p.F.Hash(uint32(src), uint32(dst), spart, fpart)
}

// Generator mints m-addresses for one Mimic Node.
type Generator struct {
	P   Params
	SID uint32 // this MN's class; C_ID (common flows) must differ
	rng *sim.RNG
}

// NewGenerator builds a generator for an MN with class sid.
func NewGenerator(p Params, sid uint32, rng *sim.RNG) *Generator {
	if sid >= p.W.MaxSIDs() {
		panic(fmt.Sprintf("maga: S_ID %d exceeds %d-bit space", sid, p.W.SID))
	}
	return &Generator{P: p, SID: sid, rng: rng}
}

// Label mints a label in this MN's class whose tuple hash with (src, dst)
// equals flowID: pick x1 at random, solve x2 so G(x1,x2)=S_ID, then solve
// FPart so F(src,dst,SPart,FPart)=flowID — the paper's two-step inversion.
func (g *Generator) Label(flowID uint32, src, dst addr.IP) addr.Label {
	if flowID >= g.P.W.MaxFlowIDs() {
		panic(fmt.Sprintf("maga: flow ID %d exceeds %d-bit space", flowID, g.P.W.FPart))
	}
	x1bits := g.P.W.SPart - g.P.W.SID
	x1 := g.rng.Uint32() & (1<<x1bits - 1)
	x2 := g.P.G.InvertLast(g.SID, x1)
	spart := composeSPart(x1, x2, g.P.W)
	fpart := g.P.F.InvertLast(flowID, uint32(src), uint32(dst), spart)
	return ComposeLabel(spart, fpart, g.P.W)
}

// MAddr mints a complete m-address three-tuple for flowID, drawing the
// fake endpoint addresses from the supplied plausibility pools (real host
// addresses that could legitimately appear on the MN's egress link,
// Sec IV-B3's topology restriction).
func (g *Generator) MAddr(flowID uint32, srcPool, dstPool []addr.IP) (src, dst addr.IP, label addr.Label) {
	i, j := g.Draw(len(srcPool), len(dstPool))
	src, dst = srcPool[i], dstPool[j]
	return src, dst, g.Label(flowID, src, dst)
}

// Draw is MAddr for pools read by index: it draws the positions of the fake
// source in a pool of nSrc addresses, then of the fake destination in one of
// nDst, exactly as MAddr does; Label, called next, completes the m-address.
func (g *Generator) Draw(nSrc, nDst int) (src, dst int) {
	if nSrc == 0 || nDst == 0 {
		panic("maga: empty m-address pool")
	}
	return g.rng.Intn(nSrc), g.rng.Intn(nDst)
}
