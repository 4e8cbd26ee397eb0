package replace

// slotIndex maps resident PageIDs to small non-negative ints, the
// slots of a policy's dense per-page records. It replaces Go maps on
// the per-reference path: ids are spread by one Fibonacci multiply
// into a power-of-two table probed linearly, and deletion shifts the
// following run back instead of leaving tombstones, so lookups stay
// short however many pages come and go. Segmented pagers hand out
// sparse ids (segment<<40 | page), which is why this is a hash table
// and not a slice indexed by id.
type slotIndex struct {
	table []indexEntry
	n     int
	shift uint // 64 - log2(len(table))
}

// indexEntry is one table position. slot holds the mapped slot plus
// one, so the zero entry is empty.
type indexEntry struct {
	id   PageID
	slot int
}

// minIndexSize is the table size of the first insertion.
const minIndexSize = 16

// home is the table position an id probes first.
func (x *slotIndex) home(id PageID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the position holding id, or the empty position that
// ends its probe run. The table must not be empty.
func (x *slotIndex) find(id PageID) (int, bool) {
	mask := len(x.table) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		e := &x.table[i]
		if e.slot == 0 {
			return i, false
		}
		if e.id == id {
			return i, true
		}
	}
}

// get reports id's slot.
func (x *slotIndex) get(id PageID) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	i, ok := x.find(id)
	return x.table[i].slot - 1, ok
}

// add maps id to slot unless id is already present, and reports
// whether it added the mapping.
func (x *slotIndex) add(id PageID, slot int) bool {
	if 2*(x.n+1) > len(x.table) {
		x.grow()
	}
	i, ok := x.find(id)
	if ok {
		return false
	}
	x.table[i] = indexEntry{id: id, slot: slot + 1}
	x.n++
	return true
}

// set moves a present id to a new slot.
func (x *slotIndex) set(id PageID, slot int) {
	if i, ok := x.find(id); ok {
		x.table[i].slot = slot + 1
	}
}

// remove deletes id, reporting the slot it held.
func (x *slotIndex) remove(id PageID) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	i, ok := x.find(id)
	if !ok {
		return 0, false
	}
	slot := x.table[i].slot - 1
	x.n--
	// Backward-shift deletion: pull each later entry of the run into
	// the hole unless that would move it before its home position.
	mask := len(x.table) - 1
	for j := (i + 1) & mask; x.table[j].slot != 0; j = (j + 1) & mask {
		if (j-x.home(x.table[j].id))&mask >= (j-i)&mask {
			x.table[i] = x.table[j]
			i = j
		}
	}
	x.table[i] = indexEntry{}
	return slot, true
}

// len reports how many ids are mapped.
func (x *slotIndex) len() int { return x.n }

// grow doubles the table, keeping the load at most one half, and
// reinserts every entry.
func (x *slotIndex) grow() {
	old := x.table
	size := max(minIndexSize, 2*len(old))
	x.table = make([]indexEntry, size)
	x.shift = 64
	for s := size; s > 1; s >>= 1 {
		x.shift--
	}
	for _, e := range old {
		if e.slot != 0 {
			i, _ := x.find(e.id)
			x.table[i] = e
		}
	}
}

// PageSet is a set of PageIDs on the policies' own open-addressing
// index: one table entry per member and no Go map, dense or sparse
// ids alike. The zero value is an empty set.
type PageSet struct{ x slotIndex }

// Has reports whether id is in the set.
func (s *PageSet) Has(id PageID) bool {
	_, ok := s.x.get(id)
	return ok
}

// Add puts id in the set.
func (s *PageSet) Add(id PageID) { s.x.add(id, 0) }

// Remove takes id out of the set.
func (s *PageSet) Remove(id PageID) { s.x.remove(id) }

// Len reports the number of members.
func (s *PageSet) Len() int { return s.x.len() }
