package flowtable

// subtable is the classifier's per-match-shape hash index, one per distinct
// FieldMask in use (OVS's tuple space search). All entries whose match
// constrains the same field set live in one subtable; a packet probes each
// subtable with the corresponding projection of its own headers.
//
// The index is intrusive — it is made of the entries' own hash, chain and
// lower fields, so indexing an entry allocates nothing and removing one needs
// no second hash. The entries of one match form a bucket: a list through
// lower in strictly descending priority (priorities within a bucket are
// unique: an equal one replaces). The bucket heads whose hashes share a slot
// form that slot's list through chain; two heads on one chain never have
// equal matches, so the order of a chain carries no meaning.
type subtable struct {
	mask  FieldMask
	slots []*Entry // power-of-two length; doubled at 3/4 load
	heads int      // buckets, i.e. distinct matches, indexed
}

// place is where an entry of some match and priority belongs in a subtable.
type place struct {
	slot **Entry // the link holding the bucket's head; holds nil if there is no bucket
	prev *Entry  // the bucket entry just above the priority, nil if none
	cur  *Entry  // the bucket entry at or just below the priority, nil if none
}

// hash4 mixes four packed words into a hash whose low bits pick a slot: a
// multiply-xorshift round per word.
func hash4(w0, w1, w2, w3 uint64) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := w0 * k
	h = (h ^ h>>32 ^ w1) * k
	h = (h ^ h>>32 ^ w2) * k
	h = (h ^ h>>32 ^ w3) * k
	return h ^ h>>32
}

// hash hashes a normalized match. The mask is left out: a hash is only ever
// compared within one subtable.
func (m *Match) hash() uint64 {
	return hash4(
		uint64(m.IPSrc)<<32|uint64(m.IPDst),
		uint64(m.EthSrc)^uint64(m.TPSrc)<<48,
		uint64(m.EthDst)^uint64(m.TPDst)<<48,
		uint64(m.MPLS)^uint64(m.Proto)<<32^uint64(m.InPort)<<40,
	)
}

// subtable returns the subtable indexing matches of shape mask, or nil if no
// entry of that shape was ever installed.
func (t *Table) subtable(mask FieldMask) *subtable {
	for _, st := range t.subs {
		if st.mask == mask {
			return st
		}
	}
	return nil
}

// find returns the link holding the head of key's bucket, or the nil link
// ending the slot's chain if key has no bucket. key is normalized and h is its
// hash.
func (st *subtable) find(h uint64, key *Match) **Entry {
	slot := &st.slots[h&uint64(len(st.slots)-1)]
	for e := *slot; e != nil && (e.hash != h || !e.Match.equal(key)); e = *slot {
		slot = &e.chain
	}
	return slot
}

// locate finds where an entry of match key (normalized, hash h) and the given
// priority belongs.
func (st *subtable) locate(h uint64, key *Match, priority int) place {
	at := place{slot: st.find(h, key)}
	for at.cur = *at.slot; at.cur != nil && at.cur.Priority > priority; at.cur = at.cur.lower {
		at.prev = at.cur
	}
	return at
}

// link puts e (its hash set) at the place located for it, above lower: at.cur
// for a new entry, at.cur's successor when e replaces at.cur.
func (st *subtable) link(at place, e, lower *Entry) {
	e.lower = lower
	if at.prev != nil {
		e.chain = nil
		at.prev.lower = e
		return
	}
	// e heads its bucket, taking over the slot chain from the head it goes
	// above or replaces.
	head := *at.slot
	*at.slot = e
	if head != nil {
		e.chain, head.chain = head.chain, nil
		return
	}
	e.chain = nil
	st.heads++
	if st.heads*4 > len(st.slots)*3 {
		st.grow()
	}
}

// unlink takes an installed entry out of its bucket; the next lower priority,
// if any, inherits a head's place on the slot chain.
func (st *subtable) unlink(e *Entry) {
	for slot := &st.slots[e.hash&uint64(len(st.slots)-1)]; *slot != nil; slot = &(*slot).chain {
		head := *slot
		if head == e {
			if e.lower != nil {
				e.lower.chain = e.chain
				*slot = e.lower
			} else {
				*slot = e.chain
				st.heads--
			}
			e.chain, e.lower = nil, nil
			return
		}
		if head.hash != e.hash {
			continue
		}
		for x := head; x.lower != nil; x = x.lower {
			if x.lower == e {
				x.lower, e.lower = e.lower, nil
				return
			}
		}
	}
}

// grow doubles the slot array and re-chains every bucket head by its stored
// hash.
func (st *subtable) grow() {
	old := st.slots
	st.slots = make([]*Entry, 2*len(old))
	for _, head := range old {
		for head != nil {
			next := head.chain
			slot := &st.slots[head.hash&uint64(len(st.slots)-1)]
			head.chain, *slot = *slot, head
			head = next
		}
	}
}
