package replace

import "dsa/internal/sim"

// learnEntry is the per-page usage record of the learning program: time
// of last use, previous duration of inactivity, and an insertion
// sequence number for deterministic tie-breaks.
type learnEntry struct {
	id       PageID
	lastUse  sim.Time
	interval sim.Time
	seq      uint64
}

// Learning is the ATLAS "learning program" (Kilburn et al. [14],
// Appendix A.1). For each resident page it records the length of time
// since the page was last accessed (t) and the previous duration of
// inactivity for that page (T, the last inter-use interval).
//
//   - It first "attempts to find a page which appears to be no longer
//     in use": a page whose current idle time t comfortably exceeds its
//     previous inactivity period T.
//   - "If all the pages are in current use it tries to choose the one
//     which, if the recent pattern of use is maintained, will be the
//     last to be required": the page maximizing T - t, the predicted
//     time until its next use.
//
// On a cyclic reference pattern T approximates the loop period, so the
// policy keeps loop pages just long enough — the behaviour that made it
// superior to LRU/FIFO on ATLAS's looping scientific codes and which
// experiment T1 reproduces.
//
// The records live in a dense slice (with an id→slot index for O(1)
// Touch/Remove) so the two victim-selection passes scan contiguous
// memory instead of iterating maps. Both passes break ties by sequence
// number, so the winner does not depend on scan order and matches the
// map-iteration original exactly.
type Learning struct {
	entries []learnEntry
	index   slotIndex
	n       uint64
	// Slack is the multiple of T beyond which a page is deemed out of
	// use; ATLAS used a small constant margin. 1 means t > T.
	Slack sim.Time
}

// NewLearning returns an ATLAS learning policy.
func NewLearning() *Learning {
	return &Learning{Slack: 1}
}

// Name implements Policy.
func (*Learning) Name() string { return "atlas-learning" }

// Insert implements Policy.
func (l *Learning) Insert(id PageID, now sim.Time) {
	if !l.index.add(id, len(l.entries)) {
		return
	}
	l.n++
	l.entries = append(l.entries, learnEntry{
		id:       id,
		lastUse:  now,
		interval: 0, // no history yet
		seq:      l.n,
	})
}

// Touch implements Policy.
func (l *Learning) Touch(id PageID, now sim.Time, _ bool) {
	i, ok := l.index.get(id)
	if !ok {
		return
	}
	e := &l.entries[i]
	if gap := now - e.lastUse; gap > 0 {
		e.interval = gap
	}
	e.lastUse = now
}

// Victim implements Policy.
func (l *Learning) Victim(now sim.Time) (PageID, error) {
	if len(l.entries) == 0 {
		return 0, ErrEmpty
	}
	// Pass 1: a page apparently no longer in use — idle longer than its
	// established inactivity period (with slack). Prefer the one idle
	// longest beyond expectation.
	var outOfUse *learnEntry
	var bestOver sim.Time = -1
	for i := range l.entries {
		e := &l.entries[i]
		T := e.interval
		if T == 0 {
			continue // no established period yet
		}
		t := now - e.lastUse
		if t > T*l.Slack {
			over := t - T
			if over > bestOver || (over == bestOver && e.seq < outOfUse.seq) {
				bestOver = over
				outOfUse = e
			}
		}
	}
	if outOfUse != nil {
		return outOfUse.id, nil
	}
	// Pass 2: all in current use — choose the page whose next use is
	// predicted farthest away: maximize T - t.
	var victim *learnEntry
	var bestScore sim.Time
	for i := range l.entries {
		e := &l.entries[i]
		score := e.interval - (now - e.lastUse)
		if victim == nil || score > bestScore ||
			(score == bestScore && e.seq < victim.seq) {
			victim = e
			bestScore = score
		}
	}
	return victim.id, nil
}

// Remove implements Policy.
func (l *Learning) Remove(id PageID) {
	i, ok := l.index.remove(id)
	if !ok {
		return
	}
	last := len(l.entries) - 1
	if i != last {
		l.entries[i] = l.entries[last]
		l.index.set(l.entries[i].id, i)
	}
	l.entries = l.entries[:last]
}

// Len implements Policy.
func (l *Learning) Len() int { return len(l.entries) }
