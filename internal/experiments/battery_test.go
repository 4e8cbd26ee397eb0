package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dsa/internal/engine/battery"
	"dsa/internal/workload/catalog"
)

// TestBatteryParallelMatchesSerialGolden is the tentpole acceptance:
// whole sweeps running concurrently over one shared executor must
// reproduce the serial golden tables byte for byte — ordered
// re-emission and key-derived seeding leave scheduling nowhere to leak
// into the output.
func TestBatteryParallelMatchesSerialGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "all_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range []int{2, 4, 20} {
		got := renderNamed(t, Config{Parallel: 4, BatteryParallel: bp})
		if got != string(want) {
			t.Errorf("battery-parallel=%d diverged from serial golden baseline\n"+
				"got %d bytes, want %d bytes\nfirst divergence: %s",
				bp, len(got), len(want), firstDiff(got, string(want)))
		}
	}
}

// TestBatteryParallelThroughDistPool: concurrent sweeps sharing one
// dist pool — the executor seam under concurrent Execute calls, worker
// processes and their catalogs persisting across the whole battery —
// must still match the golden bytes with no cell falling back to
// in-process execution and no crashes.
func TestBatteryParallelThroughDistPool(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and runs the full battery")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	pool := newBatchWorkerPool(t, 2, 4)
	got := renderNamed(t, Config{BatteryParallel: 3, Executor: pool})
	if got != string(want) {
		t.Errorf("battery through a shared dist pool diverged from golden\n"+
			"got %d bytes, want %d bytes\nfirst divergence: %s",
			len(got), len(want), firstDiff(got, string(want)))
	}
	st := pool.Stats()
	if st.Local != 0 || st.Remote == 0 || st.Crashes != 0 {
		t.Errorf("stats = %+v, want a clean fully-remote battery", st)
	}
}

// TestBatteryNoDuplicateGenerations: concurrent sweeps share the
// battery store — a workload key declared by several sweeps must
// materialize exactly once battery-wide, the same count a serial
// battery produces.
func TestBatteryNoDuplicateGenerations(t *testing.T) {
	generations := func(bp int) int {
		store := catalog.New()
		if _, err := runTables(Config{Parallel: 4, BatteryParallel: bp, Store: store}); err != nil {
			t.Fatal(err)
		}
		return store.Stats().Generations
	}
	serial := generations(1)
	concurrent := generations(4)
	if serial == 0 {
		t.Fatal("serial battery generated no workloads — instrumentation broken")
	}
	if concurrent != serial {
		t.Errorf("battery-parallel generations = %d, serial = %d; concurrent sweeps duplicated work", concurrent, serial)
	}
}

// TestBatteryPoisonedSweepOthersComplete: one sweep whose shared
// workload is poisoned must surface as FAILED rows in its own table
// while every other sweep of the concurrent battery completes
// untouched and the shared store's stats still merge.
func TestBatteryPoisonedSweepOthersComplete(t *testing.T) {
	store := catalog.New()
	// Pre-poison T1's working-set page string in the battery store: the
	// first sweep cell to request it — and every later one — panics with
	// the recorded *PoisonedError, which the engine contains per cell.
	func() {
		defer func() { recover() }()
		catalog.Get(store, fmt.Sprintf("t1/page-string/working-set@%x", uint64(5)),
			func() (int, error) { panic("poisoned workload") })
	}()
	tables, err := runTables(Config{Parallel: 4, BatteryParallel: 3, Store: store}, "t1", "t4", "t8", "a2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("tables = %d, want 4", len(tables))
	}
	t1 := tables[0].String()
	if !strings.Contains(t1, "FAILED") || !strings.Contains(t1, "poisoned") {
		t.Errorf("poisoned sweep's table lacks FAILED rows:\n%s", t1)
	}
	// The untouched sweeps must match their solo serial renders.
	for i, name := range []string{"t4", "t8", "a2"} {
		want, err := runOne(Config{}, name)
		if err != nil {
			t.Fatal(err)
		}
		if tables[i+1].String() != want.String() {
			t.Errorf("%s diverged when a concurrent sweep was poisoned", name)
		}
	}
	st := store.Stats()
	if st.Poisoned != 1 {
		t.Errorf("store poisoned = %d, want exactly the pre-poisoned entry", st.Poisoned)
	}
	if st.Generations == 0 || st.Hits == 0 {
		t.Errorf("store stats did not merge across concurrent sweeps: %+v", st)
	}
}

// TestBatteryProgressAggregation: OnBatteryProgress receives
// battery-wide snapshots whose final state accounts every sweep and
// cell.
func TestBatteryProgressAggregation(t *testing.T) {
	var mu sync.Mutex
	var last battery.Progress
	c := Config{Parallel: 2, BatteryParallel: 2, OnBatteryProgress: func(p battery.Progress) {
		mu.Lock()
		last = p
		mu.Unlock()
	}}
	if _, err := runTables(c, "t1", "t4", "a2"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last.Sweeps != 3 || last.SweepsDone != 3 || last.SweepsRunning != 0 {
		t.Errorf("final sweep counts = %+v, want 3/3 done", last)
	}
	// T1 has 9 cells, T4 has 7, A2 has 2.
	if last.Cells != 18 || last.CellsDone != 18 || last.CellsFailed != 0 {
		t.Errorf("final cell counts = %+v, want 18/18 done", last)
	}
	if last.Catalog.Generations == 0 {
		t.Errorf("final snapshot lost the store stats: %+v", last.Catalog)
	}
}

// TestRunUnknownExperiment: an unknown name fails up front, before any
// sweep runs.
func TestRunUnknownExperiment(t *testing.T) {
	if _, err := runTables(Config{}, "t1", "no-such-thing"); err == nil ||
		!strings.Contains(err.Error(), `unknown experiment "no-such-thing"`) {
		t.Errorf("err = %v, want unknown experiment", err)
	}
}

// TestNamesCoverCanonicalBattery: the canonical name list drives both
// full battery and the CLI; it must resolve and stay in battery order.
func TestNamesCoverCanonicalBattery(t *testing.T) {
	names := Names()
	if len(names) != 20 {
		t.Fatalf("names = %d, want 20", len(names))
	}
	if names[0] != "t0" || names[len(names)-1] != "a6" {
		t.Errorf("battery order broken: first %q, last %q", names[0], names[len(names)-1])
	}
	for _, n := range names {
		if _, err := byName(strings.ToUpper(n)); err != nil {
			t.Errorf("canonical name %q does not resolve case-insensitively: %v", n, err)
		}
	}
}
