package replace

import (
	"testing"

	"dsa/internal/sim"
)

// policyOp is one decoded policy operation.
type policyOp struct {
	kind  byte // 0 insert, 1 touch, 2 victim, 3 victim and remove it, 4 remove
	id    PageID
	write bool
	dt    sim.Time
}

// maxPolicyOps caps the operations decoded from one input.
const maxPolicyOps = 1024

// lockstepPolicies names the policies FuzzPolicyLockstep drives, in
// the order the first input byte selects them.
var lockstepPolicies = []string{"fifo", "random", "lru", "clock", "atlas-learning", "m44-random", "belady-min"}

// decodePolicyOps decodes fuzz input. The first byte picks the policy
// and, with its top bit, sparse ids; every following byte pair is one
// operation. Dense ids are 0..63, the pager's page numbers. Sparse ids
// are seg<<40 | page over 16 segments of 16 pages, the segmented
// pager's ids. Inserts and touches of non-resident pages, and removals
// of absent ones, are all generated: each policy must treat them
// exactly as its reference does.
func decodePolicyOps(data []byte) (policy int, sparse bool, ops []policyOp) {
	if len(data) == 0 {
		return 0, false, nil
	}
	policy, sparse = int(data[0]&0x7f)%len(lockstepPolicies), data[0]&0x80 != 0
	for rec := data[1:]; len(rec) >= 2 && len(ops) < maxPolicyOps; rec = rec[2:] {
		op := policyOp{write: rec[0]&8 != 0, dt: sim.Time(rec[0] >> 4 & 3)}
		switch k := rec[0] & 7; {
		case k < 2:
			op.kind = 0
		case k < 5:
			op.kind = 1
		default:
			op.kind = k - 3
		}
		if sparse {
			op.id = PageID(rec[1]>>4)<<40 | PageID(rec[1]&15)
		} else {
			op.id = PageID(rec[1] & 63)
		}
		ops = append(ops, op)
	}
	return policy, sparse, ops
}

// refPolicy adapts a map-based reference implementation to one shape.
type refPolicy struct {
	insert func(PageID, sim.Time)
	touch  func(PageID, sim.Time, bool)
	victim func(sim.Time) (PageID, bool)
	remove func(PageID)
	len    func() int
}

// newLockstepPair builds the named policy and its reference. refs is
// the reference string the operations will consume, for MIN.
func newLockstepPair(name string, refs []PageID) (Policy, refPolicy) {
	switch name {
	case "fifo":
		r := newRefFIFO()
		return NewFIFO(), refPolicy{
			insert: func(id PageID, _ sim.Time) { r.Insert(id) },
			touch:  func(PageID, sim.Time, bool) {},
			victim: func(sim.Time) (PageID, bool) { return r.Victim() },
			remove: r.Remove,
			len:    func() int { return len(r.pos) },
		}
	case "random":
		r := newRefRandom(sim.NewRNG(99))
		return NewRandom(sim.NewRNG(99)), refPolicy{
			insert: func(id PageID, _ sim.Time) { r.Insert(id) },
			touch:  func(PageID, sim.Time, bool) {},
			victim: func(sim.Time) (PageID, bool) { return r.Victim() },
			remove: r.Remove,
			len:    func() int { return len(r.ids) },
		}
	case "lru":
		r := newRefLRU()
		return NewLRU(), refPolicy{
			insert: r.Insert,
			touch:  func(id PageID, now sim.Time, _ bool) { r.Touch(id, now) },
			victim: func(sim.Time) (PageID, bool) { return r.Victim() },
			remove: r.Remove,
			len:    func() int { return len(r.last) },
		}
	case "clock":
		r := newRefClock()
		return NewClock(), refPolicy{
			insert: func(id PageID, _ sim.Time) { r.Insert(id) },
			touch:  func(id PageID, _ sim.Time, _ bool) { r.Touch(id) },
			victim: func(sim.Time) (PageID, bool) { return r.Victim() },
			remove: r.Remove,
			len:    func() int { return len(r.ring) },
		}
	case "atlas-learning":
		r := newRefLearning()
		return NewLearning(), refPolicy{
			insert: r.Insert,
			touch:  func(id PageID, now sim.Time, _ bool) { r.Touch(id, now) },
			victim: r.Victim,
			remove: r.Remove,
			len:    func() int { return len(r.lastUse) },
		}
	case "m44-random":
		r := newRefM44(sim.NewRNG(44))
		return NewM44Random(sim.NewRNG(44)), refPolicy{
			insert: func(id PageID, _ sim.Time) { r.Insert(id) },
			touch:  func(id PageID, _ sim.Time, w bool) { r.Touch(id, w) },
			victim: func(sim.Time) (PageID, bool) { return r.Victim() },
			remove: r.Remove,
			len:    func() int { return len(r.ids) },
		}
	default:
		r := newRefMIN(refs)
		return NewMIN(refs), refPolicy{
			insert: func(id PageID, _ sim.Time) { r.Insert(id) },
			touch:  func(id PageID, _ sim.Time, _ bool) { r.consume(id) },
			victim: func(sim.Time) (PageID, bool) { return r.Victim() },
			remove: r.Remove,
			len:    func() int { return len(r.resident) },
		}
	}
}

// checkPolicyLockstep drives one decoded input through a policy and
// its reference, requiring the same victims and lengths throughout.
func checkPolicyLockstep(t *testing.T, data []byte) {
	policy, sparse, ops := decodePolicyOps(data)
	var refs []PageID
	for _, op := range ops {
		if op.kind < 2 {
			refs = append(refs, op.id)
		}
	}
	got, want := newLockstepPair(lockstepPolicies[policy], refs)
	var now sim.Time
	for i, op := range ops {
		now += op.dt
		switch op.kind {
		case 0:
			got.Insert(op.id, now)
			want.insert(op.id, now)
		case 1:
			got.Touch(op.id, now, op.write)
			want.touch(op.id, now, op.write)
		case 2, 3:
			g, err := got.Victim(now)
			w, ok := want.victim(now)
			if (err == nil) != ok || (ok && g != w) {
				t.Fatalf("%s sparse=%v op %d: Victim = (%d, %v), reference (%d, %v)",
					lockstepPolicies[policy], sparse, i, g, err, w, ok)
			}
			if ok && op.kind == 3 {
				got.Remove(g)
				want.remove(w)
			}
		case 4:
			got.Remove(op.id)
			want.remove(op.id)
		}
		if g, w := got.Len(), want.len(); g != w {
			t.Fatalf("%s sparse=%v op %d %+v: Len() = %d, reference %d",
				lockstepPolicies[policy], sparse, i, op, g, w)
		}
	}
}

// FuzzPolicyLockstep drives each slot-indexed policy against its
// map-based reference over arbitrary Insert/Touch/Victim/Remove
// sequences, with dense and sparse ids. The seed corpus in
// testdata/fuzz holds one input per policy and id shape.
func FuzzPolicyLockstep(f *testing.F) {
	f.Fuzz(checkPolicyLockstep)
}
