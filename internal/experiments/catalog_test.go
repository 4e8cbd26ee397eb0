package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dsa/internal/engine"
	"dsa/internal/metrics"
	"dsa/internal/sim"
	"dsa/internal/workload/catalog"
)

// runTable runs ad-hoc cells as an unregistered table sweep under c,
// through the same engine aggregation registered sweeps use.
func runTable(c Config, title string, header []string, cells []cell) (*metrics.Table, error) {
	d := &sweepDef{id: title, title: title, header: header, build: eraseCells(func(Config) []cell { return cells })}
	return d.runCtx(context.Background(), c)
}

// withCatalogSpy routes every sweep's catalog through fn for the
// duration of the call to run.
func withCatalogSpy(t *testing.T, fn func(sweep string, c *catalog.Catalog), run func()) {
	t.Helper()
	catalogHook = fn
	defer func() { catalogHook = nil }()
	run()
}

// TestSweepMaterializesEachWorkloadOnce is the tentpole claim on a real
// sweep: T1 has 9 cells (3 traces × 3 frame counts) but the catalog
// generates exactly 3 workloads — one per trace — at any parallelism,
// with the other 6 requests served as hits.
func TestSweepMaterializesEachWorkloadOnce(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		var cat *catalog.Catalog
		withCatalogSpy(t, func(sweep string, c *catalog.Catalog) {
			if strings.HasPrefix(sweep, "T1") {
				cat = c
			}
		}, func() {
			if _, err := runOne(Config{Parallel: parallel}, "t1"); err != nil {
				t.Fatal(err)
			}
		})
		if cat == nil {
			t.Fatal("T1 sweep catalog not observed")
		}
		st := cat.Stats()
		if st.Generations != 3 {
			t.Errorf("parallel=%d: generations = %d, want 3 (one per trace)", parallel, st.Generations)
		}
		if st.Hits != 6 {
			t.Errorf("parallel=%d: hits = %d, want 6 (two reuses per trace)", parallel, st.Hits)
		}
		if st.Poisoned != 0 {
			t.Errorf("parallel=%d: poisoned = %d, want 0", parallel, st.Poisoned)
		}
	}
}

// TestNonzeroSeedRederivesCatalogKeys: at seed 0 the catalog keys embed
// the historical fixed workload seeds; a nonzero base seed must re-key
// every workload through sim.SeedFor, so a fresh scenario can never
// alias a stale materialization.
func TestNonzeroSeedRederivesCatalogKeys(t *testing.T) {
	keysAt := func(seed uint64) []string {
		var cat *catalog.Catalog
		withCatalogSpy(t, func(sweep string, c *catalog.Catalog) {
			if strings.HasPrefix(sweep, "T1") {
				cat = c
			}
		}, func() {
			if _, err := runOne(Config{Parallel: 2, Seed: seed}, "t1"); err != nil {
				t.Fatal(err)
			}
		})
		if cat == nil {
			t.Fatal("T1 sweep catalog not observed")
		}
		return cat.Keys()
	}

	base := keysAt(0)
	// Seed 0: keys carry the historical fixed seeds verbatim.
	wantBase := fmt.Sprintf("t1/page-string/working-set@%x", uint64(5))
	if base[len(base)-1] != wantBase {
		t.Errorf("seed-0 keys = %v, want last %q", base, wantBase)
	}

	alt := keysAt(99)
	// Seed 99: every key re-derives through sim.SeedFor — exactly the
	// derivation Config.seeded performs.
	wantAlt := fmt.Sprintf("t1/page-string/working-set@%x", sim.SeedFor(99, "workload-seed:5"))
	found := false
	for _, k := range alt {
		if k == wantAlt {
			found = true
		}
	}
	if !found {
		t.Errorf("seed-99 keys = %v, want %q derived via sim.SeedFor", alt, wantAlt)
	}
	for _, k := range alt {
		for _, b := range base {
			if k == b {
				t.Errorf("seed-99 key %q aliases a seed-0 key", k)
			}
		}
	}
}

// TestBatteryStoreSharesAcrossSweeps: with a battery-scoped store
// installed, a sweep run twice (dsafig `t1 t1`) regenerates nothing
// the second time — every workload request is a store hit — and the
// tables stay byte-identical.
func TestBatteryStoreSharesAcrossSweeps(t *testing.T) {
	store := catalog.New()
	c := Config{Parallel: 4, Store: store}
	first, err := runOne(c, "t1")
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := store.Stats()
	if afterFirst.Generations != 3 {
		t.Fatalf("first run stats = %+v, want 3 generations", afterFirst)
	}

	var sweepCat *catalog.Catalog
	withCatalogSpy(t, func(sweep string, c *catalog.Catalog) {
		if strings.HasPrefix(sweep, "T1") {
			sweepCat = c
		}
	}, func() {
		second, err := runOne(c, "t1")
		if err != nil {
			t.Fatal(err)
		}
		if second.String() != first.String() {
			t.Error("battery-store rerun changed bytes")
		}
	})
	if sweepCat == nil {
		t.Fatal("second T1 sweep catalog not observed")
	}
	st := sweepCat.Stats()
	if st.Generations != 0 || st.Hits != 9 {
		t.Errorf("second sweep stats = %+v, want 0 generations and 9 hits (all served by the store)", st)
	}
	total := store.Stats()
	if total.Generations != 3 || total.Hits != afterFirst.Hits+9 {
		t.Errorf("battery totals = %+v, want 3 generations and accumulated hits", total)
	}
}

// TestAllColdVsWarmDiskStore is the acceptance criterion in test form:
// the full battery rendered against a cold disk-backed store and again
// against the warm directory must be byte-identical, with the warm run
// replaying workloads from disk instead of regenerating them.
func TestAllColdVsWarmDiskStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full battery twice")
	}
	dir := t.TempDir()
	logf := func(string, ...interface{}) {} // fig4's refs are deliberately not disk-cacheable
	runBattery := func() (string, catalog.Stats) {
		store := catalog.NewStore(catalog.Options{Dir: dir, Log: logf})
		return renderNamed(t, Config{Parallel: 4, Store: store}), store.Stats()
	}
	cold, coldStats := runBattery()
	warm, warmStats := runBattery()
	if cold != warm {
		t.Errorf("cold and warm cache runs diverged\nfirst divergence: %s", firstDiff(warm, cold))
	}
	if coldStats.DiskWrites == 0 || coldStats.DiskHits != 0 {
		t.Errorf("cold stats = %+v, want disk writes and no disk hits", coldStats)
	}
	if warmStats.DiskHits != coldStats.DiskWrites {
		t.Errorf("warm stats = %+v, want every written workload (%d) replayed from disk",
			warmStats, coldStats.DiskWrites)
	}
	if warmStats.Generations >= coldStats.Generations {
		t.Errorf("warm run regenerated %d workloads vs cold %d; the disk layer did nothing",
			warmStats.Generations, coldStats.Generations)
	}
}

// TestPoisonedWorkloadFailsOnlyItsCells: a workload generator that
// panics turns exactly the cells that declared it into FAILED rows;
// cells on other workloads keep their values and the sweep completes.
// This is the experiments-level counterpart of the engine poisoning
// test, run through runTable's real aggregation path.
func TestPoisonedWorkloadFailsOnlyItsCells(t *testing.T) {
	sc := Config{}
	var cells []cell
	for _, wl := range []string{"healthy", "poisoned"} {
		for i := 0; i < 3; i++ {
			wl, i := wl, i
			cells = append(cells, cell{
				key: fmt.Sprintf("spike/%s/%d", wl, i),
				run: func(env engine.Env) (engine.RowBatch, error) {
					v, err := shared(env, sc, "spike/workload/"+wl, 1,
						func(rng *sim.RNG) (int, error) {
							if wl == "poisoned" {
								panic("generator exploded")
							}
							return 7, nil
						})
					if err != nil {
						return nil, err
					}
					return oneRow(wl, i, v), nil
				},
			})
		}
	}
	tb, err := runTable(sc, "spike", []string{"workload", "cell", "value"}, cells)
	if err != nil {
		t.Fatalf("poisoned workload aborted the sweep: %v", err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 healthy + 3 FAILED)", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if i < 3 {
			if row[0] != "healthy" || row[2] != "7" {
				t.Errorf("healthy row %d = %v", i, row)
			}
		} else {
			if !strings.Contains(row[1], "FAILED") || !strings.Contains(row[1], "poisoned") {
				t.Errorf("poisoned row %d = %v, want FAILED marker naming the workload", i, row)
			}
		}
	}
}
