package replace

import "dsa/internal/sim"

// MIN is Belady's optimal offline replacement policy [1]: evict the
// resident page whose next use lies farthest in the future. It needs
// the full future reference string, so it is constructed from the page
// string the experiment is about to replay and advances an internal
// cursor on every Touch. It exists as the unreachable yardstick that
// the paper's cited study measures every realizable policy against.
type MIN struct {
	future []PageID
	// next[i] holds, for reference position i, the position of the
	// next reference to the same page (len(future)+1 if none — the
	// "never used again" sentinel Victim compares against). One flat
	// precomputed array replaces the per-page position queues, whose
	// construction dominated NewMIN's allocations.
	next []int
	// cursor is the position of the next reference to consume.
	cursor int
	// ids are the resident pages and nextUse, parallel to it, the
	// position of each one's next reference after the reference that
	// last consumed it; index finds a page's slot.
	ids     []PageID
	nextUse []int
	index   slotIndex
}

// NewMIN builds the policy for a known future page-reference string.
// The caller must Touch pages in exactly the order of refs.
func NewMIN(refs []PageID) *MIN {
	m := &MIN{
		future: refs,
		next:   make([]int, len(refs)),
	}
	var last slotIndex // page -> its earliest position seen so far
	for i := len(refs) - 1; i >= 0; i-- {
		p := refs[i]
		if j, ok := last.get(p); ok {
			m.next[i] = j
			last.set(p, i)
		} else {
			m.next[i] = len(refs) + 1 // never used again
			last.add(p, i)
		}
	}
	return m
}

// Name implements Policy.
func (*MIN) Name() string { return "belady-min" }

// consume advances the cursor past the current reference and, if the
// page is resident, records its next use. A page's next use is read
// only while it is resident, and Insert always consumes.
func (m *MIN) consume(id PageID) {
	next := len(m.future) + 1
	if m.cursor < len(m.next) {
		next = m.next[m.cursor]
	}
	if i, ok := m.index.get(id); ok {
		m.nextUse[i] = next
	}
	m.cursor++
}

// Insert implements Policy. The insertion reference consumes one
// position of the future string.
func (m *MIN) Insert(id PageID, _ sim.Time) {
	if m.index.add(id, len(m.ids)) {
		m.ids = append(m.ids, id)
		m.nextUse = append(m.nextUse, 0)
	}
	m.consume(id)
}

// Touch implements Policy. Each Touch consumes one position of the
// future string.
func (m *MIN) Touch(id PageID, _ sim.Time, _ bool) { m.consume(id) }

// Victim implements Policy: the resident page with the farthest (or no)
// next use, the lowest id among equals.
func (m *MIN) Victim(sim.Time) (PageID, error) {
	if len(m.ids) == 0 {
		return 0, ErrEmpty
	}
	victim, bestNext := m.ids[0], m.nextUse[0]
	for i, id := range m.ids[1:] {
		next := m.nextUse[i+1]
		if next > bestNext || (next == bestNext && id < victim) {
			victim = id
			bestNext = next
		}
	}
	return victim, nil
}

// Remove implements Policy.
func (m *MIN) Remove(id PageID) {
	i, ok := m.index.remove(id)
	if !ok {
		return
	}
	last := len(m.ids) - 1
	if i != last {
		m.ids[i] = m.ids[last]
		m.nextUse[i] = m.nextUse[last]
		m.index.set(m.ids[i], i)
	}
	m.ids = m.ids[:last]
	m.nextUse = m.nextUse[:last]
}

// Len implements Policy.
func (m *MIN) Len() int { return len(m.ids) }
