package experiments

import (
	"fmt"

	"dsa/internal/alloc"
	"dsa/internal/engine"
	"dsa/internal/paging"
	"dsa/internal/replace"
	"dsa/internal/segment"
	"dsa/internal/sim"
	"dsa/internal/store"
	"dsa/internal/trace"
	"dsa/internal/workload"
)

// a1Def ablates the ATLAS vacant-frame policy: keeping 0, 1
// or 2 frames free ahead of demand. The reserve moves dirty write-backs
// off the fault critical path, cutting waiting time at the cost of a
// slightly smaller effective allotment. One engine cell per reserve
// depth, all replaying the same write-heavy program.
var a1Def = registerSweep("a1",
	"A1 — ablation: ATLAS vacant-frame reserve (write-heavy working set)",
	[]string{"reserve", "faults", "reserve evictions",
		"waiting time", "elapsed"},
	a1Cells)

func a1Cells(sc Config) []cell {
	const pageSize = 256
	reserves := []int{0, 1, 2}
	cells := make([]cell, len(reserves))
	for i, reserve := range reserves {
		reserve := reserve
		cells[i] = cell{
			key: fmt.Sprintf("a1/reserve=%d", reserve),
			run: func(env engine.Env) (engine.RowBatch, error) {
				tr, err := shared(env, sc, "a1/working-set", 11,
					func(rng *sim.RNG) (trace.Trace, error) {
						return workload.WorkingSet(rng, workload.WorkingSetConfig{
							Extent: 48 * pageSize, SetWords: 10 * pageSize,
							PhaseLen: 4000, Phases: 5, LocalityProb: 0.92, WriteProb: 0.6,
						})
					})
				if err != nil {
					return nil, err
				}
				clock := &sim.Clock{}
				working := store.NewLevel(clock, "core", store.Core, 8*pageSize, 1, 0)
				backing := store.NewLevel(clock, "drum", store.Drum, 48*pageSize, 800, 2)
				p, err := paging.New(paging.Config{
					Clock: clock, Working: working, Backing: backing,
					PageSize: pageSize, Frames: 8, Extent: 48 * pageSize,
					Policy: replace.NewLRU(), ReserveFrames: reserve,
				})
				if err != nil {
					return nil, err
				}
				res, err := p.Run(tr)
				if err != nil {
					return nil, err
				}
				return oneRow(reserve, res.Stats.Faults, res.Stats.ReserveEvictions,
					res.SpaceTime.WaitingTime, res.Elapsed), nil
			},
		}
	}
	return cells
}

// a2Def ablates the Rice deferred-coalescing choice against
// immediate boundary-tag coalescing, under identical request streams:
// deferral makes frees O(1) but lengthens searches (more, smaller
// chain entries) and risks transient fragmentation failures. The two
// coalescing modes run as independent engine cells.
var a2Def = registerSweep("a2",
	"A2 — ablation: immediate vs deferred (Rice) coalescing, first-fit",
	[]string{"mode", "allocs", "frag failures", "coalesce ops",
		"probes/alloc", "free blocks at end"},
	a2Cells)

func a2Cells(sc Config) []cell {
	modes := []struct {
		name string
		mode alloc.Mode
	}{
		{"immediate", alloc.CoalesceImmediate},
		{"deferred (Rice)", alloc.CoalesceDeferred},
	}
	cells := make([]cell, len(modes))
	for i, mc := range modes {
		mc := mc
		cells[i] = cell{
			key: "a2/" + mc.name,
			run: func(env engine.Env) (engine.RowBatch, error) {
				reqs, err := shared(env, sc, "a2/requests", 13,
					func(rng *sim.RNG) ([]workload.Request, error) {
						return workload.Requests(rng, workload.RequestConfig{
							Dist: workload.SizesExponential, MinSize: 8, MaxSize: 2048,
							MeanSize: 150, MeanLifetime: 40, Count: 12000,
						})
					})
				if err != nil {
					return nil, err
				}
				h := alloc.New(32768, alloc.FirstFit{}, mc.mode)
				// Per-slot FIFO free lists over flat arrays (node id is
				// index+1 so zero means empty) instead of a map of
				// slices, which dominated the sweep's allocations.
				freeHead := make([]int32, len(reqs))
				freeTail := make([]int32, len(reqs))
				var addrs []int
				var next []int32
				for i, r := range reqs {
					for n := freeHead[i]; n != 0; n = next[n-1] {
						if err := h.Free(addrs[n-1]); err != nil {
							return nil, err
						}
					}
					if a, err := h.Alloc(r.Size); err == nil && r.Lifetime > 0 {
						if at := i + r.Lifetime; at < len(reqs) {
							addrs = append(addrs, a)
							next = append(next, 0)
							id := int32(len(addrs))
							if freeHead[at] == 0 {
								freeHead[at] = id
							} else {
								next[freeTail[at]-1] = id
							}
							freeTail[at] = id
						}
					}
				}
				c := h.Counters()
				return oneRow(mc.name, c.Allocs, c.FragFailures, c.Coalesces,
					float64(c.Probes)/float64(c.Allocs+c.Failures), h.FreeBlockCount()), nil
			},
		}
	}
	return cells
}

// a3Def ablates storage packing in the segment manager: with
// compaction, fragmented free space is consolidated by moving data
// (charging transfer time); without it, the manager must evict
// segments instead. "The case of variable units of allocation is in
// general more complex because of the additional possibility of moving
// information within working storage in order to compact vacant
// spaces." One engine cell per regime, replaying the same churn.
var a3Def = registerSweep("a3",
	"A3 — ablation: storage packing vs eviction (segment manager)",
	[]string{"compaction", "fetches", "evictions", "compactions",
		"words moved", "elapsed"},
	a3Cells)

func a3Cells(sc Config) []cell {
	cells := make([]cell, 2)
	for i, compact := range []bool{false, true} {
		compact := compact
		cells[i] = cell{
			key: fmt.Sprintf("a3/compact=%t", compact),
			run: func(engine.Env) (engine.RowBatch, error) {
				clock := &sim.Clock{}
				working := store.NewLevel(clock, "core", store.Core, 4096, 1, 0)
				backing := store.NewLevel(clock, "drum", store.Drum, 1<<18, 600, 1)
				mgr, err := segment.NewManager(segment.Config{
					Clock: clock, Working: working, Backing: backing,
					Placement: alloc.FirstFit{}, Replacement: replace.NewClock(),
					CompactBeforeEvict: compact,
				})
				if err != nil {
					return nil, err
				}
				rng := sim.NewRNG(sc.seeded(15))
				// Churn: create/destroy variable segments, periodically access
				// a large one that only fits after packing or eviction.
				names := make([]string, 0, 64)
				for i := 0; i < 1500; i++ {
					switch {
					case rng.Float64() < 0.45 || len(names) == 0:
						name := segChurnName(i)
						if _, err := mgr.Create(name, nameOf(64+rng.Intn(512))); err == nil {
							if err := mgr.Touch(name, 0, true); err != nil {
								return nil, err
							}
							names = append(names, name)
						}
					case rng.Float64() < 0.7:
						j := rng.Intn(len(names))
						if err := mgr.Destroy(names[j]); err != nil {
							return nil, err
						}
						names = append(names[:j], names[j+1:]...)
					default:
						j := rng.Intn(len(names))
						if err := mgr.Touch(names[j], 0, false); err != nil {
							return nil, err
						}
					}
				}
				st := mgr.Stats()
				return oneRow(compact, st.SegFaults, st.Evictions, st.Compactions,
					st.MovedWords, clock.Now()), nil
			},
		}
	}
	return cells
}

func segChurnName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return "s" + string(letters[i%26]) + string(letters[(i/26)%26]) + string(letters[(i/676)%26])
}

// a4Def tests the claim the paper attributes to Wald [18]:
// when "the average allocation request involves an amount of storage
// that is quite small compared with the extent of physical storage",
// simply tolerating fragmentation keeps utilization acceptable. The
// mean request size sweeps from 1/512 to 1/8 of the heap; the achieved
// utilization at first failure falls as requests grow. The final
// column checks Knuth's later "fifty-percent rule" (free blocks ≈ half
// the allocated blocks at equilibrium), which this substrate exhibits.
// One engine cell per request-size fraction.
var a4Def = registerSweep("a4",
	"A4 — ablation: utilization vs relative request size (Wald)",
	[]string{"mean size / heap", "utilization@fail", "ext frag",
		"free blocks / allocated blocks"},
	a4Cells)

func a4Cells(sc Config) []cell {
	const heapWords = 65536
	fracs := []int{512, 128, 32, 16, 8}
	cells := make([]cell, len(fracs))
	for i, frac := range fracs {
		frac := frac
		cells[i] = cell{
			key: fmt.Sprintf("a4/frac=1/%d", frac),
			run: func(env engine.Env) (engine.RowBatch, error) {
				mean := heapWords / frac
				reqs, err := shared(env, sc, fmt.Sprintf("a4/requests/frac=%d", frac), 19,
					func(rng *sim.RNG) ([]workload.Request, error) {
						return workload.Requests(rng, workload.RequestConfig{
							Dist: workload.SizesExponential, MinSize: 4, MaxSize: mean * 4,
							MeanSize: mean, MeanLifetime: 50, Count: 10000,
						})
					})
				if err != nil {
					return nil, err
				}
				h := alloc.New(heapWords, alloc.FirstFit{}, alloc.CoalesceImmediate)
				// Flat per-slot free lists, as in a2Cells: the map of
				// address slices this replaces was the other dominant
				// allocator in the full sweep.
				freeHead := make([]int32, len(reqs))
				freeTail := make([]int32, len(reqs))
				var addrs []int
				var next []int32
				utilAtFail := -1.0
				liveBlocks := 0
				ratioSum, ratioN := 0.0, 0
				for i, r := range reqs {
					for n := freeHead[i]; n != 0; n = next[n-1] {
						if err := h.Free(addrs[n-1]); err != nil {
							return nil, err
						}
						liveBlocks--
					}
					if a, err := h.Alloc(r.Size); err == nil {
						liveBlocks++
						if at := i + r.Lifetime; r.Lifetime > 0 && at < len(reqs) {
							addrs = append(addrs, a)
							next = append(next, 0)
							id := int32(len(addrs))
							if freeHead[at] == 0 {
								freeHead[at] = id
							} else {
								next[freeTail[at]-1] = id
							}
							freeTail[at] = id
						}
					} else if utilAtFail < 0 {
						utilAtFail = h.Stats().Utilization()
					}
					if i > 2000 && i%100 == 0 && liveBlocks > 0 {
						ratioSum += float64(h.FreeBlockCount()) / float64(liveBlocks)
						ratioN++
					}
				}
				if utilAtFail < 0 {
					utilAtFail = 1
				}
				ratio := 0.0
				if ratioN > 0 {
					ratio = ratioSum / float64(ratioN)
				}
				st := h.Stats()
				return oneRow("1/"+itoa(frac), utilAtFail, st.ExternalFrag(), ratio), nil
			},
		}
	}
	return cells
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// a5Def ablates the cost of flushing the associative memory on
// program switches, the price multiprogrammed use of the Figure 4
// mapping pays: hit ratio and addressing overhead versus switch
// frequency. One engine cell per flush period.
var a5Def = registerSweep("a5",
	"A5 — ablation: associative memory flushes on program switch",
	[]string{"refs per switch", "hit ratio", "extra cycles/ref"},
	a5Cells)

func a5Cells(sc Config) []cell {
	const segs = 8
	periods := []int{0, 10000, 1000, 100, 10}
	cells := make([]cell, len(periods))
	for i, period := range periods {
		period := period
		cells[i] = cell{
			key: fmt.Sprintf("a5/period=%d", period),
			run: func(engine.Env) (engine.RowBatch, error) {
				clock := &sim.Clock{}
				m := mappingForFlush(clock, segs)
				rng := sim.NewRNG(sc.seeded(21))
				const refs = 40000
				before := clock.Now()
				for i := 0; i < refs; i++ {
					if period > 0 && i%period == 0 && i > 0 {
						m.TLB().Flush()
					}
					seg := rng.Intn(2)
					if rng.Float64() > 0.9 {
						seg = rng.Intn(segs)
					}
					off := rng.Intn(1024)
					if _, err := m.Translate(segID(seg), nameOf(off), false); err != nil {
						return nil, err
					}
				}
				perRef := float64(clock.Now()-before) / refs
				label := "never"
				if period > 0 {
					label = itoa(period)
				}
				return oneRow(label, m.TLB().HitRatio(), perRef), nil
			},
		}
	}
	return cells
}

// a6Def exercises the full Figure 4 data path live: a
// segmented working-set workload runs through the SegPager (segment
// table → page table → frame) while the associative-memory size sweeps
// from absent to the 360/67's 9 registers, MULTICS's 16 and the
// B8500's 44. Unlike F4 (translation only), faults, write-backs and
// transfers are all in the accounting here. One engine cell per
// associative-memory size.
var a6Def = registerSweep("a6",
	"A6 — segmented paging data path (SegPager, 16 segments)",
	[]string{"assoc. registers", "hit ratio", "page faults",
		"writebacks", "elapsed"},
	a6Cells)

func a6Cells(sc Config) []cell {
	tlbs := []int{0, 2, 9, 16, 44}
	cells := make([]cell, len(tlbs))
	for i, tlb := range tlbs {
		tlb := tlb
		cells[i] = cell{
			key: fmt.Sprintf("a6/tlb=%d", tlb),
			run: func(engine.Env) (engine.RowBatch, error) {
				clock := &sim.Clock{}
				working := store.NewLevel(clock, "core", store.Core, 16*512, 1, 0)
				backing := store.NewLevel(clock, "drum", store.Drum, 1<<20, 1000, 1)
				p, err := paging.NewSegPager(paging.SegConfig{
					Clock: clock, Working: working, Backing: backing,
					PageSize: 512, Frames: 16, MaxSegments: 16, TLBSize: tlb,
					Policy: replace.NewLRU(), LookupCost: 1,
				})
				if err != nil {
					return nil, err
				}
				rng := sim.NewRNG(sc.seeded(33))
				for s := 0; s < 16; s++ {
					if err := p.Establish(segID(s), 4096); err != nil {
						return nil, err
					}
				}
				for i := 0; i < 40000; i++ {
					var seg, off int
					if rng.Float64() < 0.85 {
						seg = rng.Intn(3)
						off = rng.Intn(1024)
					} else {
						seg = rng.Intn(16)
						off = rng.Intn(4096)
					}
					if err := p.Touch(segID(seg), nameOf(off), rng.Float64() < 0.2); err != nil {
						return nil, err
					}
				}
				st := p.Stats()
				label := itoa(tlb)
				switch tlb {
				case 0:
					label = "none"
				case 9:
					label = "9 (360/67)"
				case 16:
					label = "16 (MULTICS)"
				case 44:
					label = "44 (B8500)"
				}
				return oneRow(label, p.Mapping().TLB().HitRatio(), st.PageFaults,
					st.Writebacks, clock.Now()), nil
			},
		}
	}
	return cells
}
