// Package replace implements the replacement strategies the paper
// discusses and cites (Belady [1], Kilburn et al. [14]):
//
//   - FIFO and Random as Belady's baselines,
//   - LRU as the recency policy his study evaluates,
//   - Clock, the "essentially cyclical" strategy found effective on
//     the Burroughs B5000 (Appendix A.3),
//   - M44Random, the M44/44X policy that "selects at random from a set
//     of equally acceptable candidates determined on the basis of
//     frequency of usage and whether or not a page has been modified"
//     (Appendix A.2),
//   - Learning, the ATLAS "learning program" that records time since
//     last use and previous duration of inactivity, evicting a page
//     that appears no longer in use, else the one predicted to be the
//     last required (Appendix A.1),
//   - MIN, Belady's offline optimal, the yardstick every table of
//     experiment T1 is normalized against.
//
// A Policy tracks only residency metadata; the paging engine owns the
// frames. All policies are deterministic given their RNG seed.
//
// Every policy keeps its per-page records in dense slices and finds a
// page's record through one shared open-addressing index (slotIndex,
// PageID → slot) instead of a Go map, so the Touch, Insert and Remove
// of each reference cost a multiply and a short probe, not a map hash.
package replace

import (
	"errors"

	"dsa/internal/sim"
)

// PageID identifies a page (or segment) for replacement purposes.
type PageID uint64

// ErrEmpty reports a victim request with no resident pages.
var ErrEmpty = errors.New("replace: no resident pages")

// Policy is a replacement strategy over a set of resident pages.
//
// Contract: Insert records that a page became resident *because of a
// reference* at `now` — it counts as that page's first use. Touch is
// called only for subsequent references to an already-resident page.
// Calling Touch immediately after Insert for the same reference
// corrupts inter-reference statistics (the ATLAS learning policy would
// mistake the fetch delay for the page's period of use).
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Insert records that a page became resident due to a reference.
	Insert(id PageID, now sim.Time)
	// Touch records a further reference to a resident page. write
	// reports whether the reference modified the page (the hardware
	// "sensor" of the paper's information-gathering facilities).
	Touch(id PageID, now sim.Time, write bool)
	// Victim selects a page to evict. It does not remove the page;
	// the caller must call Remove once the eviction happens.
	Victim(now sim.Time) (PageID, error)
	// Remove records that a page left working storage.
	Remove(id PageID)
	// Len reports the number of resident pages tracked.
	Len() int
}

// FIFO evicts the page resident longest. The queue is a slice behind
// an advancing head index: re-slicing the head away (queue = queue[1:])
// made every append past capacity reallocate forever, because the
// consumed front of the backing array could never be reused. Compacting
// in place when growth would otherwise allocate keeps steady-state
// insert/evict traffic on one backing array.
type FIFO struct {
	queue    []PageID
	head     int
	resident slotIndex // the set of queued pages; slots unused
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (*FIFO) Name() string { return "fifo" }

// Insert implements Policy.
func (f *FIFO) Insert(id PageID, _ sim.Time) {
	if !f.resident.add(id, 0) {
		return
	}
	if len(f.queue) == cap(f.queue) && f.head > 0 {
		n := copy(f.queue, f.queue[f.head:])
		f.queue = f.queue[:n]
		f.head = 0
	}
	f.queue = append(f.queue, id)
}

// Touch implements Policy. FIFO ignores references.
func (f *FIFO) Touch(PageID, sim.Time, bool) {}

// Victim implements Policy.
func (f *FIFO) Victim(sim.Time) (PageID, error) {
	for f.head < len(f.queue) {
		id := f.queue[f.head]
		if _, ok := f.resident.get(id); ok {
			return id, nil
		}
		f.head++ // lazily drop removed entries
	}
	return 0, ErrEmpty
}

// Remove implements Policy.
func (f *FIFO) Remove(id PageID) {
	if _, ok := f.resident.remove(id); !ok {
		return
	}
	if f.head < len(f.queue) && f.queue[f.head] == id {
		f.head++
		return
	}
	for i := f.head; i < len(f.queue); i++ {
		if f.queue[i] == id {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			break
		}
	}
}

// Len implements Policy.
func (f *FIFO) Len() int { return f.resident.len() }

// lruEntry is one resident page on the LRU recency list. The entries
// live in one slice and link to each other by slot.
type lruEntry struct {
	id         PageID
	prev, next int32
}

// none is the null link of the LRU recency and free lists.
const none = -1

// LRU evicts the least recently used page. The resident pages live on
// an intrusive recency list (head = most recent), so victim selection
// is O(1) instead of a scan for the oldest timestamp. Because the
// simulation clock never runs backward and references at equal times
// were ordered by a strictly increasing sequence number, recency-list
// order is exactly the (timestamp, sequence) order the scan minimized:
// the victims are identical.
type LRU struct {
	entries    []lruEntry
	index      slotIndex
	head, tail int32
	free       int32 // recycled entries, chained through next
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	return &LRU{head: none, tail: none, free: none}
}

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// pushFront links a detached entry at the head of the recency list.
func (l *LRU) pushFront(i int32) {
	e := &l.entries[i]
	e.prev = none
	e.next = l.head
	if l.head != none {
		l.entries[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
}

// unlink detaches an entry from the recency list.
func (l *LRU) unlink(i int32) {
	e := &l.entries[i]
	if e.prev != none {
		l.entries[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next != none {
		l.entries[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
}

// moveToFront makes entry i the most recently used.
func (l *LRU) moveToFront(i int32) {
	if l.head == i {
		return
	}
	l.unlink(i)
	l.pushFront(i)
}

// Insert implements Policy. Re-inserting a resident page refreshes its
// recency, matching the timestamp overwrite of the original
// implementation.
func (l *LRU) Insert(id PageID, _ sim.Time) {
	if i, ok := l.index.get(id); ok {
		l.moveToFront(int32(i))
		return
	}
	i := l.free
	if i == none {
		i = int32(len(l.entries))
		l.entries = append(l.entries, lruEntry{})
	} else {
		l.free = l.entries[i].next
	}
	l.entries[i].id = id
	l.pushFront(i)
	l.index.add(id, int(i))
}

// Touch implements Policy.
func (l *LRU) Touch(id PageID, _ sim.Time, _ bool) {
	if i, ok := l.index.get(id); ok {
		l.moveToFront(int32(i))
	}
}

// Victim implements Policy.
func (l *LRU) Victim(sim.Time) (PageID, error) {
	if l.tail == none {
		return 0, ErrEmpty
	}
	return l.entries[l.tail].id, nil
}

// Remove implements Policy.
func (l *LRU) Remove(id PageID) {
	slot, ok := l.index.remove(id)
	if !ok {
		return
	}
	i := int32(slot)
	l.unlink(i)
	l.entries[i] = lruEntry{next: l.free}
	l.free = i
}

// Len implements Policy.
func (l *LRU) Len() int { return l.index.len() }

// Random evicts a uniformly random resident page.
type Random struct {
	rng   *sim.RNG
	ids   []PageID
	index slotIndex
}

// NewRandom returns a Random policy drawing from rng.
func NewRandom(rng *sim.RNG) *Random {
	return &Random{rng: rng}
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Insert implements Policy.
func (r *Random) Insert(id PageID, _ sim.Time) {
	if !r.index.add(id, len(r.ids)) {
		return
	}
	r.ids = append(r.ids, id)
}

// Touch implements Policy.
func (r *Random) Touch(PageID, sim.Time, bool) {}

// Victim implements Policy.
func (r *Random) Victim(sim.Time) (PageID, error) {
	if len(r.ids) == 0 {
		return 0, ErrEmpty
	}
	return r.ids[r.rng.Intn(len(r.ids))], nil
}

// Remove implements Policy.
func (r *Random) Remove(id PageID) {
	i, ok := r.index.remove(id)
	if !ok {
		return
	}
	last := len(r.ids) - 1
	if i != last {
		r.ids[i] = r.ids[last]
		r.index.set(r.ids[i], i)
	}
	r.ids = r.ids[:last]
}

// Len implements Policy.
func (r *Random) Len() int { return len(r.ids) }
