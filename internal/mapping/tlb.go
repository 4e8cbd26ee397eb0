package mapping

import "dsa/internal/addr"

// TLBKey identifies a (segment, page) pair in the associative memory.
type TLBKey struct {
	Seg  addr.SegID
	Page uint64
}

// TLB models the small associative memory "in which recently-used
// segment and/or page locations are kept": 8+1 registers on the IBM
// 360/67, 44 thin-film words on the B8500. Hits bypass the mapping
// tables entirely; replacement within the TLB is least-recently-used,
// which content-addressable hardware of the era approximated with
// usage flip-flops.
//
// The model is what the hardware was: a fixed set of registers searched
// by content, here linearly (there are at most 44). Every hit and
// install stamps its register from a counter; the stamps are unique,
// so evicting the oldest is strict LRU. Valid registers are packed at
// the front, so a probe searches only those, an invalidation moves the
// last valid register into the hole, and a flush forgets them all.
type TLB struct {
	// The registers, as parallel arrays; the first n are valid.
	pages  []uint64
	segs   []addr.SegID
	frames []int
	used   []uint64 // use stamps
	n      int
	clock  uint64
	hits   int64
	misses int64
}

// NewTLB creates an associative memory of the given capacity.
// Capacity 0 is legal and models a machine without one: every lookup
// misses.
func NewTLB(capacity int) *TLB {
	if capacity < 0 {
		panic("mapping: negative TLB capacity")
	}
	return &TLB{
		pages:  make([]uint64, capacity),
		segs:   make([]addr.SegID, capacity),
		frames: make([]int, capacity),
		used:   make([]uint64, capacity),
	}
}

// Capacity reports the number of associative registers.
func (t *TLB) Capacity() int { return len(t.pages) }

// find returns the register holding k, or -1.
func (t *TLB) find(k TLBKey) int {
	pages := t.pages[:t.n]
	segs := t.segs[:len(pages)]
	for i, p := range pages {
		if p == k.Page && segs[i] == k.Seg {
			return i
		}
	}
	return -1
}

// lru returns the valid register with the oldest use stamp.
func (t *TLB) lru() int {
	used := t.used[:t.n]
	victim, oldest := 0, used[0]
	for i, u := range used {
		if u < oldest {
			victim, oldest = i, u
		}
	}
	return victim
}

// Lookup probes the associative memory.
func (t *TLB) Lookup(k TLBKey) (frame int, ok bool) {
	i := t.find(k)
	if i < 0 {
		t.misses++
		return 0, false
	}
	t.hits++
	t.clock++
	t.used[i] = t.clock
	return t.frames[i], true
}

// Install records a translation, evicting the least recently used
// entry if the memory is full.
func (t *TLB) Install(k TLBKey, frame int) {
	if len(t.pages) == 0 {
		return
	}
	i := t.find(k)
	if i < 0 {
		if t.n < len(t.pages) {
			i = t.n
			t.n++
		} else {
			i = t.lru()
		}
		t.pages[i] = k.Page
		t.segs[i] = k.Seg
	}
	t.clock++
	t.frames[i] = frame
	t.used[i] = t.clock
}

// drop invalidates register i by moving the last valid one into it.
func (t *TLB) drop(i int) {
	t.n--
	t.pages[i] = t.pages[t.n]
	t.segs[i] = t.segs[t.n]
	t.frames[i] = t.frames[t.n]
	t.used[i] = t.used[t.n]
}

// InvalidatePage removes any entry for the (segment, page) pair; it
// must be called when a page is evicted from its frame.
func (t *TLB) InvalidatePage(k TLBKey) {
	if i := t.find(k); i >= 0 {
		t.drop(i)
	}
}

// InvalidateSegment removes every entry of the segment in one pass
// over the registers; it must be called when the segment leaves the
// segment table.
func (t *TLB) InvalidateSegment(seg addr.SegID) {
	for i := 0; i < t.n; {
		if t.segs[i] == seg {
			t.drop(i)
		} else {
			i++
		}
	}
}

// Flush empties the associative memory (e.g. on program switch).
func (t *TLB) Flush() { t.n = 0 }

// Len reports the number of valid entries.
func (t *TLB) Len() int { return t.n }

// Stats reports hit and miss counts.
func (t *TLB) Stats() (hits, misses int64) { return t.hits, t.misses }

// HitRatio reports hits / (hits+misses), 0 when unused.
func (t *TLB) HitRatio() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}
