package scenario

import (
	"fmt"
	"testing"

	"dsa/internal/replace"
	"dsa/internal/sim"
)

// refFaultCount is the map-based harness FaultCount replaced.
func refFaultCount(p replace.Policy, refs []replace.PageID, capacity int) int {
	var clock sim.Clock
	resident := make(map[replace.PageID]bool, capacity)
	faults := 0
	for _, r := range refs {
		clock.Advance(1)
		if resident[r] {
			p.Touch(r, clock.Now(), false)
			continue
		}
		faults++
		if len(resident) == capacity {
			v, err := p.Victim(clock.Now())
			if err != nil {
				panic(err)
			}
			p.Remove(v)
			delete(resident, v)
		}
		resident[r] = true
		p.Insert(r, clock.Now())
	}
	return faults
}

// pageRefs draws a reference string with locality: runs inside a
// drifting window of pages, with occasional jumps anywhere. Sparse ids
// are seg<<40 | page, the shape the segmented pager hands out.
func pageRefs(rng *sim.RNG, n, pages int, sparse bool) []replace.PageID {
	refs := make([]replace.PageID, n)
	base := 0
	for i := range refs {
		if rng.Intn(50) == 0 {
			base = rng.Intn(pages)
		}
		p := (base + rng.Intn(6)) % pages
		if rng.Intn(20) == 0 {
			p = rng.Intn(pages)
		}
		refs[i] = replace.PageID(p)
		if sparse {
			refs[i] = replace.PageID(p/16)<<40 | replace.PageID(p%16)
		}
	}
	return refs
}

// TestFaultCountMatchesReference requires the PageSet harness to count
// exactly the faults of the map harness, for every policy, over dense
// and sparse page ids.
func TestFaultCountMatchesReference(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		for _, name := range replacePolicyNames() {
			t.Run(fmt.Sprintf("%s/sparse=%v", name, sparse), func(t *testing.T) {
				rng := sim.NewRNG(uint64(len(name)))
				for trial := 0; trial < 4; trial++ {
					refs := pageRefs(rng, 3000, 16+rng.Intn(120), sparse)
					for _, capacity := range []int{1, 3, 8, 20} {
						got, _ := ReplacePolicy(name, refs, 7)
						want, _ := ReplacePolicy(name, refs, 7)
						g, w := FaultCount(got, refs, capacity), refFaultCount(want, refs, capacity)
						if g != w {
							t.Fatalf("trial %d, %d frames: %d faults, reference %d", trial, capacity, g, w)
						}
					}
				}
			})
		}
	}
}

// TestFaultCountAllocsFlat guards the harness: with the policy built
// beforehand, its allocations must not grow with the reference string.
func TestFaultCountAllocsFlat(t *testing.T) {
	const runs, capacity = 4, 8
	for _, name := range replacePolicyNames() {
		allocs := func(n int) float64 {
			refs := pageRefs(sim.NewRNG(3), n, 64, true)
			policies := make([]replace.Policy, runs+1) // AllocsPerRun adds a warm-up call
			for i := range policies {
				policies[i], _ = ReplacePolicy(name, refs, 7)
			}
			next := 0
			return testing.AllocsPerRun(runs, func() {
				FaultCount(policies[next], refs, capacity)
				next++
			})
		}
		short, long := allocs(2000), allocs(40000)
		if long > short {
			t.Errorf("%s: %.0f allocs over 40000 refs vs %.0f over 2000", name, long, short)
		}
	}
}
