// Package segment implements segment-level dynamic storage allocation:
// the nonuniform-unit counterpart of package paging, in which "the
// segment is used directly as the unit of allocation" (Burroughs B5000,
// Appendix A.3; Rice University computer, Appendix A.4).
//
// A Manager owns a symbolically segmented name space (a dictionary of
// unordered segment symbols), a variable-unit heap over working
// storage, descriptors (B5000 PRT elements) or codewords (Rice), and a
// replacement policy applied at segment granularity. Segments are
// dynamic: they can be created, destroyed, grown and shrunk by program
// directives. Each segment is fetched when reference is first made to
// information in it, and on allocation failure the manager follows the
// Rice recipe: coalesce, optionally compact, and otherwise apply the
// replacement algorithm "iteratively until a block of sufficient size
// is released" — subject to any overlay permissions carried by an
// ACSI-MATIC style program description.
package segment

import (
	"errors"
	"fmt"

	"dsa/internal/addr"
	"dsa/internal/alloc"
	"dsa/internal/metrics"
	"dsa/internal/predict"
	"dsa/internal/replace"
	"dsa/internal/sim"
	"dsa/internal/store"
)

// ErrNoVictim reports that replacement could not release enough space
// (everything resident is protected by overlay restrictions).
var ErrNoVictim = errors.New("segment: no permissible replacement victim")

// ErrTooLarge reports a segment larger than working storage, which a
// pure segment-per-allocation system cannot hold (the B5000 capped
// segments at 1024 words for exactly this reason).
var ErrTooLarge = errors.New("segment: extent exceeds working storage")

// Descriptor is a PRT element: base address and extent of the segment,
// and an indication of whether the segment is currently in working
// storage, plus the use/modify sensors replacement strategies consult.
type Descriptor struct {
	Base     addr.Address
	Extent   addr.Name
	Present  bool
	Use      bool
	Modified bool
	// BackingBase locates the segment's image in backing storage.
	BackingBase int
}

// Config assembles a Manager.
type Config struct {
	// Clock is the shared simulation clock.
	Clock *sim.Clock
	// Working is the core level the heap manages.
	Working *store.Level
	// Backing holds segment images when not resident.
	Backing *store.Level
	// Placement chooses where segments land in working storage.
	Placement alloc.Policy
	// CoalesceMode selects immediate or deferred (Rice) coalescing.
	CoalesceMode alloc.Mode
	// Replacement chooses victim segments; segment IDs are used as
	// replace.PageIDs.
	Replacement replace.Policy
	// MaxSegmentWords caps segment extent (B5000: 1024); 0 = no cap
	// beyond working storage size.
	MaxSegmentWords int
	// Description optionally restricts overlaying, ACSI-MATIC style.
	Description *predict.ProgramDescription
	// CompactBeforeEvict runs storage packing when an allocation fails
	// from fragmentation, before falling back to replacement.
	CompactBeforeEvict bool
}

// Stats counts manager events.
type Stats struct {
	Accesses     int64
	SegFaults    int64 // fetches on first reference / after eviction
	FetchedWords int64 // words brought in by fetches
	Evictions    int64
	Writebacks   int64
	Compactions  int64
	MovedWords   int64
	Creates      int64
	Destroys     int64
	Grows        int64
}

// Manager is a segment-level dynamic storage allocator.
type Manager struct {
	cfg  Config
	dict *addr.SymbolicDictionary
	// descs is indexed by SegID, which the dictionary hands out
	// sequentially and never reuses; a destroyed segment leaves nil.
	// live counts the non-nil entries.
	descs []*Descriptor
	live  int
	heap  *alloc.Heap
	st    *metrics.SpaceTime

	// index registers for Rice codewords
	indexRegs [8]addr.Name

	backingNext int
	stats       Stats
}

// NewManager builds a manager over the configured levels.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Clock == nil || cfg.Working == nil || cfg.Backing == nil {
		return nil, errors.New("segment: clock, working and backing are required")
	}
	if cfg.Placement == nil {
		cfg.Placement = alloc.BestFit{}
	}
	if cfg.Replacement == nil {
		return nil, errors.New("segment: nil replacement policy")
	}
	return &Manager{
		cfg:  cfg,
		dict: addr.NewSymbolicDictionary(),
		heap: alloc.New(cfg.Working.Capacity(), cfg.Placement, cfg.CoalesceMode),
		st:   metrics.NewSpaceTime(cfg.Clock),
	}, nil
}

// Stats returns the counters so far.
func (m *Manager) Stats() Stats { return m.stats }

// Heap exposes the working-storage heap for fragmentation reporting.
func (m *Manager) Heap() *alloc.Heap { return m.heap }

// SpaceTime exposes the space-time accumulator.
func (m *Manager) SpaceTime() *metrics.SpaceTime { return m.st }

// Dictionary exposes the symbolic segment dictionary.
func (m *Manager) Dictionary() *addr.SymbolicDictionary { return m.dict }

// Create declares a segment of the given extent. The segment starts in
// backing storage only; it is fetched on first reference.
func (m *Manager) Create(symbol string, extent addr.Name) (addr.SegID, error) {
	if extent == 0 {
		return 0, fmt.Errorf("segment: zero extent for %q", symbol)
	}
	if max := m.cfg.MaxSegmentWords; max > 0 && int(extent) > max {
		return 0, fmt.Errorf("%w: %q extent %d exceeds cap %d", ErrTooLarge, symbol, extent, max)
	}
	if int(extent) > m.cfg.Working.Capacity() {
		return 0, fmt.Errorf("%w: %q extent %d exceeds core %d",
			ErrTooLarge, symbol, extent, m.cfg.Working.Capacity())
	}
	if m.dict.Contains(symbol) {
		return 0, fmt.Errorf("segment: %q already exists", symbol)
	}
	if m.backingNext+int(extent) > m.cfg.Backing.Capacity() {
		return 0, fmt.Errorf("segment: backing storage exhausted creating %q", symbol)
	}
	id := m.dict.Declare(symbol)
	for int(id) >= len(m.descs) {
		m.descs = append(m.descs, nil)
	}
	m.descs[id] = &Descriptor{Extent: extent, BackingBase: m.backingNext}
	m.live++
	m.backingNext += int(extent)
	m.stats.Creates++
	return id, nil
}

// Destroy removes a segment entirely.
func (m *Manager) Destroy(symbol string) error {
	id, err := m.dict.Lookup(symbol)
	if err != nil {
		return err
	}
	d := m.descs[id]
	if d.Present {
		if err := m.heap.Free(int(d.Base)); err != nil {
			return err
		}
		m.cfg.Replacement.Remove(replace.PageID(id))
		m.st.AddResident(-int64(d.Extent))
	}
	m.descs[id] = nil
	m.live--
	if err := m.dict.Remove(symbol); err != nil {
		return err
	}
	m.stats.Destroys++
	return nil
}

// Descriptor returns a copy of the segment's descriptor.
func (m *Manager) Descriptor(symbol string) (Descriptor, error) {
	id, err := m.dict.Lookup(symbol)
	if err != nil {
		return Descriptor{}, err
	}
	return *m.descs[id], nil
}

// ResidentWords reports the words of resident segments.
func (m *Manager) ResidentWords() int64 { return m.st.Resident() }

// Read accesses word `offset` of the segment for reading.
func (m *Manager) Read(symbol string, offset addr.Name) (uint64, error) {
	a, _, err := m.access(symbol, offset, false)
	if err != nil {
		return 0, err
	}
	return m.cfg.Working.ReadWord(int(a))
}

// Write accesses word `offset` of the segment for writing.
func (m *Manager) Write(symbol string, offset addr.Name, v uint64) error {
	a, _, err := m.access(symbol, offset, true)
	if err != nil {
		return err
	}
	return m.cfg.Working.WriteWord(int(a), v)
}

// Touch references the word without data transfer to the caller.
func (m *Manager) Touch(symbol string, offset addr.Name, write bool) error {
	if write {
		a, _, err := m.access(symbol, offset, true)
		if err != nil {
			return err
		}
		v, err := m.cfg.Working.ReadWord(int(a))
		if err != nil {
			return err
		}
		return m.cfg.Working.WriteWord(int(a), v)
	}
	_, err := m.Read(symbol, offset)
	return err
}

// access resolves (symbol, offset) to an absolute address, fetching the
// segment on first reference, with automatic subscript checking.
func (m *Manager) access(symbol string, offset addr.Name, write bool) (addr.Address, addr.SegID, error) {
	m.stats.Accesses++
	id, err := m.dict.Lookup(symbol)
	if err != nil {
		return 0, 0, err
	}
	d := m.descs[id]
	if offset >= d.Extent {
		return 0, 0, fmt.Errorf("%w: offset %d, segment %q extent %d",
			addr.ErrLimit, offset, symbol, d.Extent)
	}
	wasPresent := d.Present
	if !d.Present {
		if err := m.fetch(symbol, id, d); err != nil {
			return 0, 0, err
		}
	}
	d.Use = true
	if write {
		d.Modified = true
	}
	if wasPresent {
		// The fetching reference is accounted by the policy's Insert;
		// Touch is only for hits (see the replace.Policy contract).
		m.cfg.Replacement.Touch(replace.PageID(id), m.cfg.Clock.Now(), write)
	}
	return d.Base + addr.Address(offset), id, nil
}

// fetch brings a segment into working storage, making room by
// coalescing, compaction, or iterative replacement as needed.
func (m *Manager) fetch(symbol string, id addr.SegID, d *Descriptor) error {
	m.stats.SegFaults++
	m.st.BeginWait()
	defer m.st.EndWait()
	base, err := m.makeRoom(symbol, int(d.Extent))
	if err != nil {
		return err
	}
	if err := store.Transfer(m.cfg.Backing, d.BackingBase, m.cfg.Working, base, int(d.Extent)); err != nil {
		return err
	}
	d.Base = addr.Address(base)
	d.Present = true
	d.Use = true
	d.Modified = false
	m.cfg.Replacement.Insert(replace.PageID(id), m.cfg.Clock.Now())
	m.st.AddResident(int64(d.Extent))
	m.stats.FetchedWords += int64(d.Extent)
	return nil
}

// makeRoom allocates n words, evicting segments if necessary.
func (m *Manager) makeRoom(incoming string, n int) (int, error) {
	if base, err := m.heap.Alloc(n); err == nil {
		return base, nil
	}
	if m.cfg.CompactBeforeEvict && m.heap.FreeWords() >= n {
		if err := m.compact(); err != nil {
			return 0, err
		}
		if base, err := m.heap.Alloc(n); err == nil {
			return base, nil
		}
	}
	// Replacement applied iteratively until a block of sufficient size
	// is released (A.4).
	for tries := 0; tries < 1024; tries++ {
		if err := m.evictOne(incoming); err != nil {
			return 0, err
		}
		if base, err := m.heap.Alloc(n); err == nil {
			return base, nil
		}
		// Eviction freed space but fragmentation may still block a
		// large request; compaction is the last resort each round.
		if m.cfg.CompactBeforeEvict && m.heap.FreeWords() >= n {
			if err := m.compact(); err != nil {
				return 0, err
			}
			if base, err := m.heap.Alloc(n); err == nil {
				return base, nil
			}
		}
	}
	return 0, fmt.Errorf("%w: could not free %d words", ErrNoVictim, n)
}

// evictOne picks one victim segment (honoring overlay permissions) and
// pages it out.
func (m *Manager) evictOne(incoming string) error {
	desc := m.cfg.Description
	var skipped []replace.PageID
	defer func() {
		now := m.cfg.Clock.Now()
		for _, s := range skipped {
			m.cfg.Replacement.Insert(s, now)
		}
	}()
	for i := 0; i <= m.live; i++ {
		v, err := m.cfg.Replacement.Victim(m.cfg.Clock.Now())
		if err != nil {
			if errors.Is(err, replace.ErrEmpty) {
				return ErrNoVictim
			}
			return err
		}
		id := addr.SegID(v)
		sym, ok := m.dict.Symbol(id)
		if !ok {
			m.cfg.Replacement.Remove(v)
			continue
		}
		if desc != nil && desc.Restricted(incoming) && !desc.MayOverlay(incoming, sym) {
			m.cfg.Replacement.Remove(v)
			skipped = append(skipped, v)
			continue
		}
		if desc != nil && desc.MediumOf(sym) == predict.WorkingStorage {
			// Declared core-resident: skip like a pinned page.
			m.cfg.Replacement.Remove(v)
			skipped = append(skipped, v)
			continue
		}
		return m.evict(id)
	}
	return ErrNoVictim
}

// evict pages out one segment, writing it back if modified.
func (m *Manager) evict(id addr.SegID) error {
	var d *Descriptor
	if int(id) < len(m.descs) {
		d = m.descs[id]
	}
	if d == nil || !d.Present {
		return fmt.Errorf("segment: evicting non-resident segment %d", id)
	}
	if d.Modified {
		if err := store.Transfer(m.cfg.Working, int(d.Base), m.cfg.Backing, d.BackingBase, int(d.Extent)); err != nil {
			return err
		}
		m.stats.Writebacks++
	}
	if err := m.heap.Free(int(d.Base)); err != nil {
		return err
	}
	d.Present = false
	d.Use = false
	m.cfg.Replacement.Remove(replace.PageID(id))
	m.st.AddResident(-int64(d.Extent))
	m.stats.Evictions++
	return nil
}

// compact packs resident segments to low addresses, updating their
// descriptors — possible only because all access is via descriptors,
// the paper's point about avoiding stored absolute addresses.
func (m *Manager) compact() error {
	oldBase := make(map[int]addr.SegID, m.live)
	for id, d := range m.descs {
		if d != nil && d.Present {
			oldBase[int(d.Base)] = addr.SegID(id)
		}
	}
	moves := m.heap.Compact()
	for _, mv := range moves {
		if err := store.MoveWithin(m.cfg.Working, mv.Src, mv.Dst, mv.Words); err != nil {
			return err
		}
		id, ok := oldBase[mv.Src]
		if !ok {
			return fmt.Errorf("segment: compaction moved unknown block at %d", mv.Src)
		}
		m.descs[id].Base = addr.Address(mv.Dst)
		delete(oldBase, mv.Src)
		oldBase[mv.Dst] = id
		m.stats.MovedWords += int64(mv.Words)
	}
	m.stats.Compactions++
	return nil
}

// Grow extends (or shrinks) a segment to newExtent, preserving its
// contents — the "dynamic segments" capability. A resident segment is
// reallocated in place when possible, otherwise staged through backing
// storage.
func (m *Manager) Grow(symbol string, newExtent addr.Name) error {
	id, err := m.dict.Lookup(symbol)
	if err != nil {
		return err
	}
	if newExtent == 0 {
		return fmt.Errorf("segment: zero extent for %q", symbol)
	}
	if max := m.cfg.MaxSegmentWords; max > 0 && int(newExtent) > max {
		return fmt.Errorf("%w: %q extent %d exceeds cap %d", ErrTooLarge, symbol, newExtent, max)
	}
	if int(newExtent) > m.cfg.Working.Capacity() {
		return fmt.Errorf("%w: %q extent %d exceeds core %d",
			ErrTooLarge, symbol, newExtent, m.cfg.Working.Capacity())
	}
	d := m.descs[id]
	if newExtent == d.Extent {
		return nil
	}
	m.stats.Grows++
	if newExtent < d.Extent {
		// Shrink: the backing image keeps the prefix; a resident copy
		// is written back and released, to be refetched lazily at the
		// new extent. Content beyond newExtent is dropped.
		if d.Present {
			if err := m.evict(id); err != nil {
				return err
			}
		}
		d.Extent = newExtent
		return nil
	}
	// Grow: allocate a fresh backing image, copy the old content.
	if m.backingNext+int(newExtent) > m.cfg.Backing.Capacity() {
		return fmt.Errorf("segment: backing storage exhausted growing %q", symbol)
	}
	if d.Present {
		if err := m.evict(id); err != nil {
			return err
		}
	}
	newBacking := m.backingNext
	m.backingNext += int(newExtent)
	if err := store.Transfer(m.cfg.Backing, d.BackingBase, m.cfg.Backing, newBacking, int(d.Extent)); err != nil {
		return err
	}
	d.BackingBase = newBacking
	d.Extent = newExtent
	return nil
}

// SetIndexReg loads a Rice index register.
func (m *Manager) SetIndexReg(reg int, v addr.Name) error {
	if reg < 0 || reg >= len(m.indexRegs) {
		return fmt.Errorf("segment: index register %d out of range", reg)
	}
	m.indexRegs[reg] = v
	return nil
}

// Codeword is a Rice University codeword: a compact characterization of
// a segment which, unlike a B5000 descriptor, names an index register
// whose contents are automatically added to the segment base on access
// ("the equivalent operation on the B5000 would have to be programmed
// explicitly").
type Codeword struct {
	Symbol   string
	IndexReg int
}

// ReadCodeword accesses offset+indexReg words into the segment.
func (m *Manager) ReadCodeword(cw Codeword, offset addr.Name) (uint64, error) {
	if cw.IndexReg < 0 || cw.IndexReg >= len(m.indexRegs) {
		return 0, fmt.Errorf("segment: index register %d out of range", cw.IndexReg)
	}
	return m.Read(cw.Symbol, offset+m.indexRegs[cw.IndexReg])
}

// WriteCodeword writes offset+indexReg words into the segment.
func (m *Manager) WriteCodeword(cw Codeword, offset addr.Name, v uint64) error {
	if cw.IndexReg < 0 || cw.IndexReg >= len(m.indexRegs) {
		return fmt.Errorf("segment: index register %d out of range", cw.IndexReg)
	}
	return m.Write(cw.Symbol, offset+m.indexRegs[cw.IndexReg], v)
}
