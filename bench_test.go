// Benchmarks regenerating every table dsafig prints (BenchmarkSweep,
// one sub-benchmark per sweep, and BenchmarkAllSweep for the whole
// battery), plus micro-benchmarks of the underlying substrates.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each sweep benchmark executes the full sweep per iteration; the
// tables themselves are printed by cmd/dsafig.
package dsa_test

import (
	"context"
	"fmt"
	"testing"

	"dsa"
	"dsa/internal/alloc"
	"dsa/internal/engine"
	"dsa/internal/experiments"
	"dsa/internal/machine"
	"dsa/internal/mapping"
	"dsa/internal/metrics"
	"dsa/internal/paging"
	"dsa/internal/replace"
	"dsa/internal/sim"
	"dsa/internal/store"
	"dsa/internal/trace"
	"dsa/internal/workload"
	"dsa/internal/workload/catalog"
	"dsa/internal/workload/stock"
)

// BenchmarkSweep regenerates each registered sweep of the battery,
// one sub-benchmark per sweep name (BenchmarkSweep/t8, ...), so a
// regression in the bench gate names the sweep it lives in.
func BenchmarkSweep(b *testing.B) {
	for _, name := range experiments.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := 0
				err := experiments.StreamConfig(context.Background(), experiments.Config{},
					func(t *metrics.Table) { rows = len(t.Rows) }, name)
				if err != nil {
					b.Fatal(err)
				}
				if rows == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkHeapAllocFree measures boundary-tag heap throughput per
// placement policy.
func BenchmarkHeapAllocFree(b *testing.B) {
	policies := []struct {
		name string
		mk   func() alloc.Policy
	}{
		{"first-fit", func() alloc.Policy { return alloc.FirstFit{} }},
		{"best-fit", func() alloc.Policy { return alloc.BestFit{} }},
		{"next-fit", func() alloc.Policy { return &alloc.NextFit{} }},
		{"two-ended", func() alloc.Policy { return alloc.TwoEnded{Threshold: 256} }},
	}
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			h := alloc.New(1<<20, pc.mk(), alloc.CoalesceImmediate)
			rng := sim.NewRNG(1)
			live := make([]int, 0, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(live) < 512 || rng.Float64() < 0.5 {
					if a, err := h.Alloc(1 + rng.Intn(512)); err == nil {
						live = append(live, a)
						continue
					}
				}
				if len(live) > 0 {
					j := rng.Intn(len(live))
					_ = h.Free(live[j])
					live = append(live[:j], live[j+1:]...)
				}
			}
		})
	}
}

// BenchmarkBuddyAllocFree measures the buddy allocator baseline.
func BenchmarkBuddyAllocFree(b *testing.B) {
	bd, err := alloc.NewBuddy(1<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	live := make([]int, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) < 512 || rng.Float64() < 0.5 {
			if a, err := bd.Alloc(1 + rng.Intn(512)); err == nil {
				live = append(live, a)
				continue
			}
		}
		if len(live) > 0 {
			j := rng.Intn(len(live))
			_ = bd.Free(live[j])
			live = append(live[:j], live[j+1:]...)
		}
	}
}

// BenchmarkReplacementPolicies measures victim-selection throughput.
func BenchmarkReplacementPolicies(b *testing.B) {
	mks := []struct {
		name string
		mk   func() replace.Policy
	}{
		{"fifo", func() replace.Policy { return replace.NewFIFO() }},
		{"lru", func() replace.Policy { return replace.NewLRU() }},
		{"clock", func() replace.Policy { return replace.NewClock() }},
		{"random", func() replace.Policy { return replace.NewRandom(sim.NewRNG(3)) }},
		{"m44-random", func() replace.Policy { return replace.NewM44Random(sim.NewRNG(3)) }},
		{"atlas-learning", func() replace.Policy { return replace.NewLearning() }},
	}
	for _, pc := range mks {
		b.Run(pc.name, func(b *testing.B) {
			p := pc.mk()
			const resident = 256
			for i := 0; i < resident; i++ {
				p.Insert(replace.PageID(i), sim.Time(i))
			}
			rng := sim.NewRNG(4)
			now := sim.Time(resident)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				p.Touch(replace.PageID(rng.Intn(resident)), now, false)
				if i%8 == 0 {
					v, err := p.Victim(now)
					if err != nil {
						b.Fatal(err)
					}
					p.Remove(v)
					p.Insert(v, now)
				}
			}
		})
	}
}

// BenchmarkTLBLookup measures associative-memory probe cost.
func BenchmarkTLBLookup(b *testing.B) {
	tlb := mapping.NewTLB(44)
	for i := 0; i < 44; i++ {
		tlb.Install(mapping.TLBKey{Seg: 0, Page: uint64(i)}, i)
	}
	rng := sim.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := mapping.TLBKey{Seg: 0, Page: uint64(rng.Intn(64))}
		if _, ok := tlb.Lookup(k); !ok {
			tlb.Install(k, int(k.Page))
		}
	}
}

// BenchmarkPagerTouch measures the full reference path of the demand
// pager (translate, sensors, policy) on a working-set trace.
func BenchmarkPagerTouch(b *testing.B) {
	clock := &sim.Clock{}
	working := store.NewLevel(clock, "core", store.Core, 32*512, 1, 0)
	backing := store.NewLevel(clock, "drum", store.Drum, 256*512, 100, 1)
	p, err := paging.New(paging.Config{
		Clock: clock, Working: working, Backing: backing,
		PageSize: 512, Frames: 32, Extent: 256 * 512,
		Policy: replace.NewLRU(),
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.WorkingSet(sim.NewRNG(6), workload.WorkloadWS(256*512, 1<<16))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr[i%len(tr)]
		if err := p.Touch(dsa.Name(r.Name), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentAccess measures the segment-manager reference path
// through the recommended system.
func BenchmarkSegmentAccess(b *testing.B) {
	sys, err := dsa.NewSystem(dsa.Recommended(65536, 1<<20, 1024))
	if err != nil {
		b.Fatal(err)
	}
	const segs = 32
	for i := 0; i < segs; i++ {
		if err := sys.Create(segName(i), 512); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Touch(segName(rng.Intn(segs)), dsa.Name(rng.Intn(512)), false); err != nil {
			b.Fatal(err)
		}
	}
}

func segName(i int) string {
	return string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// BenchmarkAllSweep runs the entire experiment battery through the
// engine at serial and fanned-out parallelism. On a multi-core runner
// the parallel=8 case shows the engine's wall-clock win; the tables
// are byte-identical either way (see the experiments golden test).
func BenchmarkAllSweep(b *testing.B) {
	for _, parallel := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables := 0
				err := experiments.StreamConfig(context.Background(), experiments.Config{Parallel: parallel},
					func(*metrics.Table) { tables++ })
				if err != nil {
					b.Fatal(err)
				}
				if tables == 0 {
					b.Fatal("no tables")
				}
			}
		})
	}
}

// BenchmarkMachineReplay replays what `dsasim -machine all` runs: each
// of the seven appendix machines at the CLIs' capacity scale, built
// fresh, replays one working-set trace and one segmented workload. The
// traces are generated once, outside the timer, so the figure is
// machine build plus replay: store levels, mapping, paging,
// replacement and the segment manager, with their allocations.
func BenchmarkMachineReplay(b *testing.B) {
	const scale, refs, segs, seed = 2, 50000, 32, 1
	ctors := []func(int) (*machine.Machine, error){
		machine.Atlas, machine.M44, machine.B5000, machine.Rice, machine.B8500, machine.Multics, machine.M67,
	}
	cat := catalog.New()
	linear := make([]trace.Trace, len(ctors))
	for i, ctor := range ctors {
		m, err := ctor(scale)
		if err != nil {
			b.Fatal(err)
		}
		if linear[i], err = stock.Linear(cat, "workingset", stock.Extent(m), refs, seed); err != nil {
			b.Fatal(err)
		}
	}
	segmented, err := stock.Segments(cat, segs, refs, seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, ctor := range ctors {
			m, err := ctor(scale)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.RunLinear(linear[j]); err != nil {
				b.Fatal(err)
			}
			if m, err = ctor(scale); err != nil {
				b.Fatal(err)
			}
			if _, err := m.RunWorkload(segmented); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMetricsTable measures rendering a representative experiment
// table — the hot path of every sweep's output — with the allocation
// counters the bench gate tracks: the single-pass renderer should hold
// a handful of allocations per render regardless of row count.
func BenchmarkMetricsTable(b *testing.B) {
	t := &metrics.Table{
		Title:  "bench table",
		Header: []string{"policy", "faults", "rate", "spacetime", "note"},
	}
	for i := 0; i < 24; i++ {
		t.AddRow(fmt.Sprintf("policy-%d", i), i*137, float64(i)*0.017, int64(i)*1<<20, "steady")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(t.String()) == 0 {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkCellSteadyState measures the engine's per-cell cost in
// steady state — scheduling, seeding, and result merging around
// trivial cell bodies — with allocation counters, so the near-zero-
// alloc cell path stays gated.
func BenchmarkCellSteadyState(b *testing.B) {
	jobs := make([]engine.Job, 256)
	for i := range jobs {
		jobs[i] = engine.Job{Key: fmt.Sprintf("cell%d", i),
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				return env.RNG.Uint64(), nil
			}}
	}
	eng := engine.New(engine.Options{Parallel: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := eng.Run(context.Background(), jobs)
		if len(results) != len(jobs) {
			b.Fatal("short results")
		}
	}
}

// BenchmarkWorkloadGen measures the workload generators the catalog
// rebuilds on every cold materialization, with allocation counters —
// each generator should allocate its output trace and essentially
// nothing else.
func BenchmarkWorkloadGen(b *testing.B) {
	const refs = 1 << 14
	b.Run("workingset", func(b *testing.B) {
		rng := sim.NewRNG(11)
		cfg := workload.WorkloadWS(1<<16, refs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, err := workload.WorkingSet(rng, cfg)
			if err != nil || len(tr) == 0 {
				b.Fatal(err)
			}
		}
	})
	b.Run("zipf", func(b *testing.B) {
		rng := sim.NewRNG(12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tr := workload.Zipf(rng, 512, 512, 0.9, refs); len(tr) == 0 {
				b.Fatal("empty trace")
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		rng := sim.NewRNG(13)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tr := workload.UniformRandom(rng, 1<<16, refs); len(tr) == 0 {
				b.Fatal("empty trace")
			}
		}
	})
}

// BenchmarkEngineOverhead measures the engine's per-job cost with
// trivial cells — the fan-out/merge tax a sweep pays over inline loops.
func BenchmarkEngineOverhead(b *testing.B) {
	jobs := make([]engine.Job, 64)
	for i := range jobs {
		jobs[i] = engine.Job{Key: fmt.Sprintf("j%d", i),
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				return env.RNG.Uint64(), nil
			}}
	}
	eng := engine.New(engine.Options{Parallel: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := eng.Run(context.Background(), jobs)
		if len(results) != len(jobs) {
			b.Fatal("short results")
		}
	}
}
