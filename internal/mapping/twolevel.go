package mapping

import (
	"fmt"

	"dsa/internal/addr"
	"dsa/internal/sim"
)

// SegEntry is a segment-table entry of the Figure 4 scheme: it locates
// the page table of the segment and carries the segment's extent so
// that "the checking of illegal subscripting can be performed
// automatically".
type SegEntry struct {
	// Table is the segment's page table; nil while the segment is not
	// established in working storage.
	Table *PageTable
	// Extent is the segment length in words; names beyond it trap.
	Extent addr.Name
	// Present gates the whole segment.
	Present bool
}

// TwoLevel is the two-level mapping scheme of Figure 4: a logical
// address (segment, page, word) is resolved through a segment table to
// a page table to a frame, with a small associative memory short-
// circuiting both lookups for recently used pages.
type TwoLevel struct {
	clock *sim.Clock
	// LookupCost is charged per table level actually consulted.
	LookupCost sim.Time
	// TLBCost is charged per associative probe (usually 0: the probe
	// overlaps the storage access in hardware).
	TLBCost sim.Time

	segs []SegEntry
	tlb  *TLB

	lookups   int64
	segFaults int64
}

// NewTwoLevel creates a two-level mapper for up to maxSegs segments
// with an associative memory of tlbSize registers.
func NewTwoLevel(clock *sim.Clock, maxSegs, tlbSize int, lookupCost sim.Time) *TwoLevel {
	if maxSegs <= 0 {
		panic("mapping: non-positive segment count")
	}
	return &TwoLevel{
		clock:      clock,
		LookupCost: lookupCost,
		segs:       make([]SegEntry, maxSegs),
		tlb:        NewTLB(tlbSize),
	}
}

// TLB exposes the associative memory for statistics and invalidation.
func (m *TwoLevel) TLB() *TLB { return m.tlb }

// MaxSegments reports the segment-table capacity.
func (m *TwoLevel) MaxSegments() int { return len(m.segs) }

// Establish installs a segment of the given extent with a fresh page
// table of the given page size (all pages absent).
func (m *TwoLevel) Establish(seg addr.SegID, extent addr.Name, pageSize uint64) (*PageTable, error) {
	if int(seg) >= len(m.segs) {
		return nil, fmt.Errorf("%w: segment %d beyond table of %d", addr.ErrLimit, seg, len(m.segs))
	}
	pages := int((uint64(extent) + pageSize - 1) / pageSize)
	if pages == 0 {
		pages = 1
	}
	pt := NewPageTable(m.clock, pages, pageSize, m.LookupCost)
	m.segs[seg] = SegEntry{Table: pt, Extent: extent, Present: true}
	return pt, nil
}

// Retract removes a segment from the table (segment destroyed or paged
// out wholesale) and flushes its TLB entries.
func (m *TwoLevel) Retract(seg addr.SegID) {
	if int(seg) < len(m.segs) {
		m.tlb.InvalidateSegment(seg)
		m.segs[seg] = SegEntry{}
	}
}

// Segment returns the segment entry.
func (m *TwoLevel) Segment(seg addr.SegID) (SegEntry, error) {
	if int(seg) >= len(m.segs) {
		return SegEntry{}, fmt.Errorf("%w: segment %d beyond %d", addr.ErrLimit, seg, len(m.segs))
	}
	return m.segs[seg], nil
}

// SetExtent changes a segment's extent (dynamic segments "can be varied
// during execution by special program directives"). Growing beyond the
// page table's coverage re-establishes a larger table, preserving
// present entries.
func (m *TwoLevel) SetExtent(seg addr.SegID, extent addr.Name) error {
	if int(seg) >= len(m.segs) {
		return fmt.Errorf("%w: segment %d beyond %d", addr.ErrLimit, seg, len(m.segs))
	}
	e := &m.segs[seg]
	if !e.Present || e.Table == nil {
		return &SegmentFault{Seg: seg}
	}
	pageSize := e.Table.PageSize
	pages := int((uint64(extent) + pageSize - 1) / pageSize)
	if pages > e.Table.Pages() {
		nt := NewPageTable(m.clock, pages, pageSize, m.LookupCost)
		copy(nt.entries, e.Table.entries)
		e.Table = nt
	}
	e.Extent = extent
	return nil
}

// Translate resolves (segment, word-within-segment) to an absolute
// address. The TLB is probed first; on a hit both table lookups are
// skipped. Traps: addr.ErrLimit for subscript violations, *SegmentFault
// and *PageFault for absences.
func (m *TwoLevel) Translate(seg addr.SegID, n addr.Name, write bool) (addr.Address, error) {
	if int(seg) >= len(m.segs) {
		return 0, fmt.Errorf("%w: segment %d beyond %d", addr.ErrLimit, seg, len(m.segs))
	}
	e := &m.segs[seg]
	if !e.Present || e.Table == nil {
		m.segFaults++
		return 0, &SegmentFault{Seg: seg}
	}
	if n >= e.Extent {
		return 0, fmt.Errorf("%w: name %d, segment %d extent %d", addr.ErrLimit, n, seg, e.Extent)
	}
	pageSize := e.Table.PageSize
	page := uint64(n) / pageSize
	offset := uint64(n) % pageSize

	m.clock.Advance(m.TLBCost)
	if frame, ok := m.tlb.Lookup(TLBKey{Seg: seg, Page: page}); ok {
		// Keep sensors current even on the fast path.
		pe := &e.Table.entries[page]
		pe.Use = true
		if write {
			pe.Modified = true
		}
		return addr.Address(uint64(frame)*pageSize + offset), nil
	}

	// Segment-table lookup (already validated) costs one access...
	m.clock.Advance(m.LookupCost)
	m.lookups++
	// ...then the page-table lookup.
	a, err := e.Table.Translate(n, write)
	if err != nil {
		if pf, ok := err.(*PageFault); ok {
			pf.Seg = seg
		}
		return 0, err
	}
	pe, _ := e.Table.Entry(page)
	m.tlb.Install(TLBKey{Seg: seg, Page: page}, pe.Frame)
	return a, nil
}

// Stats reports segment-table lookups and segment faults; page-table
// statistics live on the per-segment tables.
func (m *TwoLevel) Stats() (lookups, segFaults int64) { return m.lookups, m.segFaults }
