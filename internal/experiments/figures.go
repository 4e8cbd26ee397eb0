// Package experiments regenerates every figure and derived table of
// the paper's evaluation material (see DESIGN.md §3 for the index).
// Each experiment returns a metrics.Table; cmd/dsafig prints them and
// bench_test.go wraps them as benchmarks. All experiments are
// deterministic: their cells fan out across internal/engine's worker
// pool (see Configure), declare their workloads as keys in a sweep-
// shared catalog (internal/workload/catalog) so each workload is
// materialized exactly once per sweep, and the aggregated tables are
// byte-identical at any parallelism.
package experiments

import (
	"context"
	"fmt"

	"dsa/internal/addr"
	"dsa/internal/engine"
	"dsa/internal/mapping"
	"dsa/internal/metrics"
	"dsa/internal/paging"
	"dsa/internal/replace"
	"dsa/internal/sim"
	"dsa/internal/store"
	"dsa/internal/trace"
	"dsa/internal/workload"
)

// fig2Trace materializes the uniform-random trace both Figure 2 cells
// replay.
func fig2Trace(env engine.Env, sc Config, extent uint64, refs int) (trace.Trace, error) {
	return shared(env, sc, "fig2/uniform-random", 21, func(rng *sim.RNG) (trace.Trace, error) {
		return workload.UniformRandom(rng, extent, refs), nil
	})
}

// fig1Def reproduces Figure 1: a set of separate
// physical blocks, scattered in storage, made to correspond to a single
// set of contiguous names. The table shows the name-to-address mapping
// and verifies that every name in the contiguous range resolves while
// offsets within blocks are preserved. The figure is one engine cell:
// its rows share running state (the previous block's end address).
var fig1Def = registerSweep("fig1",
	"Figure 1 — artificial name contiguity (contiguous names, scattered blocks)",
	[]string{"name range", "page", "frame", "absolute range", "contiguous?"},
	fig1Cells)

func fig1Cells(Config) []cell {
	single := cell{
		key: "fig1/scatter",
		run: func(engine.Env) (engine.RowBatch, error) {
			var clock sim.Clock
			const pages, pageSize = 8, 256
			pt := mapping.NewPageTable(&clock, pages, pageSize, 1)
			// Scatter: the frames are deliberately non-contiguous and out of
			// order, as in the figure.
			frames := []int{11, 3, 14, 7, 0, 9, 5, 12}
			for p, f := range frames {
				if err := pt.SetEntry(uint64(p), f); err != nil {
					return nil, err
				}
			}
			var batch engine.RowBatch
			prevEnd := addr.Address(0)
			contiguousBlocks := 0
			for p := 0; p < pages; p++ {
				lo, err := pt.Translate(addr.Name(p*pageSize), false)
				if err != nil {
					return nil, err
				}
				hi, err := pt.Translate(addr.Name(p*pageSize+pageSize-1), false)
				if err != nil {
					return nil, err
				}
				contig := "no"
				if p > 0 && lo == prevEnd {
					contig = "yes"
					contiguousBlocks++
				}
				prevEnd = hi + 1
				batch = append(batch, []interface{}{
					fmt.Sprintf("%d..%d", p*pageSize, p*pageSize+pageSize-1),
					p, frames[p],
					fmt.Sprintf("%d..%d", lo, hi),
					contig,
				})
			}
			// Verification row: every name translates, offsets preserved.
			bad := 0
			for n := addr.Name(0); n < pages*pageSize; n++ {
				a, err := pt.Translate(n, false)
				if err != nil || uint64(a)%pageSize != uint64(n)%pageSize {
					bad++
				}
			}
			batch = append(batch, []interface{}{"all 2048 names", "-", "-",
				fmt.Sprintf("%d translation errors", bad),
				fmt.Sprintf("%d/7 physically adjacent", contiguousBlocks)})
			return batch, nil
		},
	}
	return []cell{single}
}

// fig2Def reproduces Figure 2: the simple one-level mapping
// scheme, in which the most significant bits of the name index a table
// of block addresses. The table compares addressing cost without any
// mapping (relocation/limit pair) against the one-level mapped path,
// quantifying the overhead the mapping device introduces. The two
// schemes run as independent engine cells replaying the same cataloged
// trace.
var fig2Def = registerSweep("fig2",
	"Figure 2 — simple mapping scheme: addressing cost per reference",
	[]string{"scheme", "refs", "table accesses", "extra cost/ref (core cycles)"},
	fig2Cells)

func fig2Cells(sc Config) []cell {
	const extent = 64 * 256
	const refs = 20000
	unmapped := cell{
		key: "fig2/relocation-limit",
		run: func(env engine.Env) (engine.RowBatch, error) {
			tr, err := fig2Trace(env, sc, extent, refs)
			if err != nil {
				return nil, err
			}
			// Unmapped: relocation/limit only — no per-reference table access.
			var unmappedCost sim.Time
			rl := addr.RelocationLimit{Base: 4096, Limit: extent}
			for _, r := range tr {
				if _, err := rl.Map(addr.Name(r.Name)); err != nil {
					return nil, err
				}
				// Address formation is register arithmetic: no storage access.
			}
			return oneRow("relocation+limit (no mapping)", refs, 0,
				float64(unmappedCost)/refs), nil
		},
	}
	mapped := cell{
		key: "fig2/one-level-table",
		run: func(env engine.Env) (engine.RowBatch, error) {
			tr, err := fig2Trace(env, sc, extent, refs)
			if err != nil {
				return nil, err
			}
			// Mapped: one page-table access (one core cycle) per reference.
			var clock sim.Clock
			pt := mapping.NewPageTable(&clock, 64, 256, 1)
			for p := 0; p < 64; p++ {
				if err := pt.SetEntry(uint64(p), p); err != nil {
					return nil, err
				}
			}
			before := clock.Now()
			for _, r := range tr {
				if _, err := pt.Translate(addr.Name(r.Name), false); err != nil {
					return nil, err
				}
			}
			mappedCost := clock.Now() - before
			lookups, _ := pt.Stats()
			return oneRow("one-level page table (Fig 2)", refs, lookups,
				float64(mappedCost)/refs), nil
		},
	}
	return []cell{unmapped, mapped}
}

// fig3Def reproduces Figure 3: storage utilization with demand
// paging. A working-set program runs with a fixed core allotment while
// the page-fetch time sweeps from drum-fast to disk-slow; the waiting
// share of the space-time product balloons exactly as the figure's
// shaded area does. A second sweep varies the allotment to show the
// space-minimizing property of demand paging. Every (fetch time,
// frames) point is an independent engine cell; all nine replay the one
// cataloged working-set trace.
var fig3Def = registerSweep("fig3",
	"Figure 3 — space-time product under demand paging",
	[]string{"fetch access", "frames", "faults",
		"active word-ticks", "waiting word-ticks", "wait fraction", "space-time total"},
	fig3Cells)

func fig3Cells(sc Config) []cell {
	const pageSize = 256
	const virtPages = 64
	point := func(access sim.Time, frames int) cell {
		return cell{
			key: fmt.Sprintf("fig3/access=%d/frames=%d", access, frames),
			run: func(env engine.Env) (engine.RowBatch, error) {
				tr, err := shared(env, sc, "fig3/working-set", 42,
					func(rng *sim.RNG) (trace.Trace, error) {
						return workload.WorkingSet(rng, workload.WorkingSetConfig{
							Extent: virtPages * pageSize, SetWords: 6 * pageSize,
							PhaseLen: 4000, Phases: 5, LocalityProb: 0.95, WriteProb: 0.2,
						})
					})
				if err != nil {
					return nil, err
				}
				clock := &sim.Clock{}
				working := store.NewLevel(clock, "core", store.Core, frames*pageSize, 1, 0)
				backing := store.NewLevel(clock, "backing", store.Drum, virtPages*pageSize, access, 2)
				p, err := paging.New(paging.Config{
					Clock: clock, Working: working, Backing: backing,
					PageSize: pageSize, Frames: frames, Extent: virtPages * pageSize,
					Policy: replace.NewLRU(), LookupCost: 1,
				})
				if err != nil {
					return nil, err
				}
				res, err := p.Run(tr)
				if err != nil {
					return nil, err
				}
				return oneRow(access, frames, res.Stats.Faults,
					res.SpaceTime.ActiveArea, res.SpaceTime.WaitingArea,
					res.SpaceTime.WaitFraction(), res.SpaceTime.Total()), nil
			},
		}
	}
	var cells []cell
	for _, access := range []sim.Time{10, 100, 1000, 10000, 100000} {
		cells = append(cells, point(access, 8))
	}
	for _, frames := range []int{4, 8, 16, 32} {
		cells = append(cells, point(3000, frames))
	}
	return cells
}

// fig4Ref is one reference of the Figure 4 trace: a segment plus an
// offset within it.
type fig4Ref struct {
	seg addr.SegID
	off addr.Name
}

// fig4Point is the intermediate one Fig4 cell measures; the rows are
// assembled afterwards because every row is normalized by the no-TLB
// baseline. Its fields are exported because the value crosses the
// process boundary (gob) when the sweep is distributed.
type fig4Point struct {
	Label    string
	HitRatio float64
	Accesses float64
	PerRef   float64
}

// fig4Table reproduces Figure 4: the two-level (segment
// table, page table) mapping scheme with a small associative memory.
// The effective addressing overhead is measured as the associative
// memory grows from absent to the 8+1 registers of the 360/67 and the
// 44 words of the B8500 — demonstrating the paper's claim that without
// such hardware "the cost in extra addressing time ... would often be
// unacceptable". Each associative-memory size measures in its own
// engine cell over the one cataloged segmented trace; the "vs no-TLB"
// column is normalized against the zero-register cell in a serial
// aggregation pass over the value sweep's results.
func fig4Table(ctx context.Context, sc Config) (*metrics.Table, error) {
	points, err := runValueSweep[fig4Point](ctx, fig4Def, sc)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: "Figure 4 — two-level mapping: associative memory vs addressing overhead",
		Header: []string{"assoc. registers", "hit ratio",
			"table accesses/ref", "extra cycles/ref", "vs no-TLB"},
	}
	baseline := points[0].PerRef
	for _, p := range points {
		t.AddRow(p.Label, p.HitRatio, p.Accesses, p.PerRef, p.PerRef/baseline)
	}
	return t, nil
}

var fig4Def = registerValueSweep("fig4", "Figure 4 — two-level mapping", fig4Cells)

func fig4Cells(sc Config) []valueCell[fig4Point] {
	const segs = 16
	const segWords = 16 * 256
	tlbSizes := []int{0, 1, 2, 4, 8, 9, 16, 44}
	cells := make([]valueCell[fig4Point], len(tlbSizes))
	for i, tlbSize := range tlbSizes {
		tlbSize := tlbSize
		cells[i] = valueCell[fig4Point]{
			key: fmt.Sprintf("fig4/tlb=%d", tlbSize),
			run: func(env engine.Env) (fig4Point, error) {
				refs, err := shared(env, sc, "fig4/segmented-trace", 77,
					func(rng *sim.RNG) ([]fig4Ref, error) {
						out := make([]fig4Ref, 50000)
						for i := range out {
							if rng.Float64() < 0.85 {
								out[i].seg = addr.SegID(rng.Intn(3))
								out[i].off = addr.Name(rng.Intn(4 * 256))
							} else {
								out[i].seg = addr.SegID(rng.Intn(segs))
								out[i].off = addr.Name(rng.Intn(segWords))
							}
						}
						return out, nil
					})
				if err != nil {
					return fig4Point{}, err
				}
				clock := &sim.Clock{}
				m := mapping.NewTwoLevel(clock, segs, tlbSize, 1)
				for s := addr.SegID(0); s < segs; s++ {
					pt, err := m.Establish(s, segWords, 256)
					if err != nil {
						return fig4Point{}, err
					}
					for p := 0; p < segWords/256; p++ {
						if err := pt.SetEntry(uint64(p), int(s)*64+p); err != nil {
							return fig4Point{}, err
						}
					}
				}
				before := clock.Now()
				for _, r := range refs {
					if _, err := m.Translate(r.seg, r.off, false); err != nil {
						return fig4Point{}, err
					}
				}
				perRef := float64(clock.Now()-before) / float64(len(refs))
				hits, misses := m.TLB().Stats()
				accesses := float64(2*misses) / float64(hits+misses)
				label := fmt.Sprint(tlbSize)
				switch tlbSize {
				case 9:
					label = "9 (360/67)"
				case 44:
					label = "44 (B8500)"
				}
				return fig4Point{Label: label, HitRatio: m.TLB().HitRatio(),
					Accesses: accesses, PerRef: perRef}, nil
			},
		}
	}
	return cells
}
