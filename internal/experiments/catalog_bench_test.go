package experiments

import (
	"fmt"
	"testing"

	"dsa/internal/engine"
	"dsa/internal/metrics"
	"dsa/internal/replace"
	"dsa/internal/sim"
	"dsa/internal/workload"
	"dsa/internal/workload/catalog"
)

// benchSweep runs an experiment repeatedly, each run over a fresh store
// from mk — catalog.New for shared materialization, catalog.Disabled
// for the old per-cell regeneration. Workers are pinned to 1 so the
// benchmark compares total work, not scheduling luck.
func benchSweep(b *testing.B, mk func() *catalog.Catalog, fn func(Config) (*metrics.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := fn(Config{Parallel: 1, Store: mk()})
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// scaledReplacementSweep is the battery's largest sweep shape scaled to
// the ROADMAP's production ambitions: one long working-set trace
// declared as a catalog key by every frame-count cell. With the shared
// catalog the trace is materialized once; with per-cell regeneration
// each of the six cells pays the full generation again — the cost this
// PR deletes.
func scaledReplacementSweep(sc Config) (*metrics.Table, error) {
	const pageSize = 256
	const refs = 400000
	frameCounts := []int{4, 8, 12, 16, 24, 32}
	cells := make([]cell, len(frameCounts))
	for i, frames := range frameCounts {
		frames := frames
		cells[i] = cell{
			key: fmt.Sprintf("bench/frames=%d", frames),
			run: func(env engine.Env) (engine.RowBatch, error) {
				pageStr, err := shared(env, sc, "bench/page-string", 5,
					func(rng *sim.RNG) ([]replace.PageID, error) {
						tr, err := workload.WorkingSet(rng, workload.WorkingSetConfig{
							Extent: 256 * pageSize, SetWords: 16 * pageSize,
							PhaseLen: refs / 8, Phases: 8, LocalityProb: 0.95,
						})
						if err != nil {
							return nil, err
						}
						return toPageIDs(tr.PageString(pageSize)), nil
					})
				if err != nil {
					return nil, err
				}
				return oneRow(frames, runPageString(replace.NewLRU(), pageStr, frames)), nil
			},
		}
	}
	return runTable(sc, "bench — scaled replacement sweep",
		[]string{"frames", "faults"}, cells)
}

// named binds a battery experiment for benchSweep.
func named(name string) func(Config) (*metrics.Table, error) {
	return func(c Config) (*metrics.Table, error) { return runOne(c, name) }
}

// BenchmarkScaledSweepSharedCatalog vs PerCellRegen: the headline
// comparison — six cells sharing one 400k-reference trace.
func BenchmarkScaledSweepSharedCatalog(b *testing.B) {
	benchSweep(b, catalog.New, scaledReplacementSweep)
}

func BenchmarkScaledSweepPerCellRegen(b *testing.B) {
	benchSweep(b, catalog.Disabled, scaledReplacementSweep)
}

// BenchmarkT2PlacementSharedCatalog vs BenchmarkT2PlacementPerCellRegen
// measure the catalog on the battery's largest real sweep (T2: 18
// cells over 3 request streams — shared, each stream generates once;
// regenerating, 18 times).
func BenchmarkT2PlacementSharedCatalog(b *testing.B) {
	benchSweep(b, catalog.New, named("t2"))
}

func BenchmarkT2PlacementPerCellRegen(b *testing.B) {
	benchSweep(b, catalog.Disabled, named("t2"))
}

// BenchmarkT1ReplacementSharedCatalog vs PerCellRegen: the battery's
// trace-heaviest sweep (9 cells over 3 traces, with a 30000-reference
// working-set trace among them).
func BenchmarkT1ReplacementSharedCatalog(b *testing.B) {
	benchSweep(b, catalog.New, named("t1"))
}

func BenchmarkT1ReplacementPerCellRegen(b *testing.B) {
	benchSweep(b, catalog.Disabled, named("t1"))
}
