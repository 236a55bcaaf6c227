package flowtable

// Slab is the storage of a batch of rules that are installed together and
// die together — one m-flow's, one switch's common routing: its entries are
// carved from one allocation and its action lists from another, instead of
// one allocation per rule and one per list. The caller sizes it for the batch;
// one that outgrows its slab moves on to a larger one, and what was carved
// before stays valid where it is.
type Slab struct {
	entries []Entry
	actions []Action
}

// NewSlab returns a slab with room for the given numbers of entries and
// actions.
func NewSlab(entries, actions int) Slab {
	return Slab{entries: make([]Entry, 0, entries), actions: make([]Action, 0, actions)}
}

// Fits reports whether the slab, empty, has room for the given numbers of
// entries and actions.
func (s *Slab) Fits(entries, actions int) bool {
	return cap(s.entries) >= entries && cap(s.actions) >= actions
}

// Reset empties the slab for another batch, keeping its storage. Everything
// carved from it before is overwritten by what is carved next, so the batch
// must be dead first: in no table, and its action lists read by no one.
func (s *Slab) Reset() {
	clear(s.entries)
	s.entries = s.entries[:0]
	s.actions = s.actions[:0]
}

// Entry carves an entry holding e.
func (s *Slab) Entry(e Entry) *Entry {
	s.entries = append(s.entries, e)
	return &s.entries[len(s.entries)-1]
}

// Mark returns the start of the action list about to be built with Add.
func (s *Slab) Mark() int { return len(s.actions) }

// Add appends to the action list being built.
func (s *Slab) Add(a ...Action) { s.actions = append(s.actions, a...) }

// Since returns the actions added since mark as a list of its own: appending
// to it copies rather than running into its neighbour.
func (s *Slab) Since(mark int) []Action {
	return s.actions[mark:len(s.actions):len(s.actions)]
}

// List carves a complete action list.
func (s *Slab) List(a ...Action) []Action {
	mark := s.Mark()
	s.Add(a...)
	return s.Since(mark)
}
