package battery

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsa/internal/engine"
	"dsa/internal/workload/catalog"
)

// TestOrderedEmissionUnderSkewedCompletion: units that finish in
// reverse order must still be emitted in unit order, each as soon as
// its prefix completes — the property that keeps a concurrent battery
// byte-identical to a serial one.
func TestOrderedEmissionUnderSkewedCompletion(t *testing.T) {
	const n = 6
	units := make([]Unit, n)
	for i := range units {
		i := i
		units[i] = Unit{Name: fmt.Sprintf("u%d", i), Run: func(ctx context.Context) (interface{}, error) {
			// Later units finish first: the first unit sleeps longest.
			time.Sleep(time.Duration(n-i) * 20 * time.Millisecond)
			return i * 10, nil
		}}
	}
	var emitted []int
	results := Run(context.Background(), units, Options{Parallel: n}, func(r Result) {
		emitted = append(emitted, r.Index)
	})
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("unit %d: %v", i, r.Err)
		}
		if r.Value != i*10 {
			t.Errorf("unit %d value = %v, want %d", i, r.Value, i*10)
		}
		if i < n-1 && emitted[i] != i {
			t.Errorf("emitted[%d] = %d, want in-order emission", i, emitted[i])
		}
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d of %d units", len(emitted), n)
	}
}

// TestUnitPanicContained: a sweep function that panics becomes a
// failed Result; the rest of the battery completes.
func TestUnitPanicContained(t *testing.T) {
	units := []Unit{
		{Name: "ok-0", Run: func(context.Context) (interface{}, error) { return "a", nil }},
		{Name: "boom", Run: func(context.Context) (interface{}, error) { panic("sweep died") }},
		{Name: "ok-2", Run: func(context.Context) (interface{}, error) { return "c", nil }},
	}
	results := Run(context.Background(), units, Options{Parallel: 2}, nil)
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy units failed alongside a contained panic: %+v", results)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "sweep died") {
		t.Errorf("panicking unit error = %v, want the contained panic value", results[1].Err)
	}
}

// TestCancellationMidBattery: cancelling mid-battery must report every
// unit not yet started with the context error, keep emission ordered
// and complete, and keep the tracker's lifecycle accounting balanced —
// the battery never wedges and never loses a unit.
func TestCancellationMidBattery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	const n = 8
	units := make([]Unit, n)
	for i := range units {
		i := i
		units[i] = Unit{Name: fmt.Sprintf("u%d", i), Run: func(ctx context.Context) (interface{}, error) {
			once.Do(func() { close(started) })
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return i, nil
			}
		}}
	}
	go func() {
		<-started
		cancel()
	}()
	var snaps []Progress
	var mu sync.Mutex
	tracker := NewTracker(n, nil, func(p Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	})
	var emitted []int
	results := Run(ctx, units, Options{Parallel: 2, Tracker: tracker}, func(r Result) {
		emitted = append(emitted, r.Index)
	})
	if len(emitted) != n {
		t.Fatalf("emitted %d of %d units under cancellation", len(emitted), n)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emission out of order under cancellation: %v", emitted)
		}
	}
	cancelled := 0
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("unit %s completed despite cancellation", r.Name)
		} else if r.Err == context.Canceled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no unit reported the context error")
	}
	snap := tracker.Snapshot()
	if snap.SweepsDone != n || snap.SweepsRunning != 0 {
		t.Errorf("tracker after cancellation = %+v, want all %d sweeps accounted done, none running", snap, n)
	}
	mu.Lock()
	if len(snaps) == 0 {
		t.Error("OnProgress never fired during a cancelled battery")
	}
	mu.Unlock()
}

// TestPoolBoundsCellsBatteryWide: N concurrent sweeps over one shared
// Pool must never have more cells in flight than the pool's budget —
// the property that makes -parallel a total budget under
// -battery-parallel.
func TestPoolBoundsCellsBatteryWide(t *testing.T) {
	const budget = 3
	pool := NewPool(budget)
	if pool.Total() != budget {
		t.Fatalf("Total() = %d, want %d", pool.Total(), budget)
	}
	var inFlight, peak int64
	mkJobs := func(sweep int) []engine.Job {
		jobs := make([]engine.Job, 6)
		for i := range jobs {
			jobs[i] = engine.Job{
				Key: fmt.Sprintf("s%d/c%d", sweep, i),
				Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
					cur := atomic.AddInt64(&inFlight, 1)
					for {
						old := atomic.LoadInt64(&peak)
						if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
							break
						}
					}
					time.Sleep(5 * time.Millisecond)
					atomic.AddInt64(&inFlight, -1)
					return env.RNG.Uint64(), nil
				},
			}
		}
		return jobs
	}
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := engine.New(engine.Options{Seed: uint64(s), Executor: pool})
			for _, r := range eng.Run(context.Background(), mkJobs(s)) {
				if r.Err != nil {
					t.Errorf("%s: %v", r.Key, r.Err)
				}
			}
		}()
	}
	wg.Wait()
	if p := atomic.LoadInt64(&peak); p > budget {
		t.Errorf("peak cells in flight = %d, want <= battery-wide budget %d", p, budget)
	}
}

// TestPoolCancellationReportsEveryJob: the shared pool must honor the
// executor contract under cancellation — every job reported exactly
// once, unstarted jobs with ctx.Err().
func TestPoolCancellationReportsEveryJob(t *testing.T) {
	pool := NewPool(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]engine.Job, 5)
	for i := range jobs {
		jobs[i] = engine.Job{
			Key: fmt.Sprintf("c%d", i),
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				cancel() // first running cell cancels the sweep
				return "ran", nil
			},
		}
	}
	eng := engine.New(engine.Options{Executor: pool})
	results := eng.Run(ctx, jobs)
	reported, cancelled := 0, 0
	for _, r := range results {
		if r.Key != "" {
			reported++
		}
		if r.Err == context.Canceled {
			cancelled++
		}
	}
	if reported != len(jobs) {
		t.Errorf("%d of %d jobs reported", reported, len(jobs))
	}
	if cancelled == 0 {
		t.Error("no job reported the context error after cancellation")
	}
}

// TestTrackerMergesSweeps: per-sweep engine progress folds into one
// battery-wide view, including the shared store's stats.
func TestTrackerMergesSweeps(t *testing.T) {
	store := catalog.New()
	if _, err := catalog.Get(store, "w", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	var last Progress
	tracker := NewTracker(3, store.Stats, func(p Progress) { last = p })
	tracker.sweepStarted("a")
	tracker.Observe("a", engine.Progress{Total: 10, Done: 4, Failed: 1})
	tracker.sweepStarted("b")
	tracker.Observe("b", engine.Progress{Total: 5, Done: 5})
	tracker.sweepDone("b", false)

	if got := tracker.Sweeps(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Sweeps() = %v, want [a b]", got)
	}
	if last.Sweeps != 3 || last.SweepsDone != 1 || last.SweepsRunning != 1 {
		t.Errorf("sweep counts = %+v, want 1/3 done, 1 running", last)
	}
	if last.Cells != 15 || last.CellsDone != 9 || last.CellsFailed != 1 {
		t.Errorf("cell counts = %+v, want 9/15 done, 1 failed", last)
	}
	if last.Catalog.Generations != 1 {
		t.Errorf("catalog stats = %+v, want the store's 1 generation", last.Catalog)
	}
	if last.ETA <= 0 {
		t.Errorf("ETA = %v, want positive mid-battery", last.ETA)
	}
	if !strings.Contains(last.String(), "1/3 sweeps (1 running), 9/15 cells") {
		t.Errorf("String() = %q", last.String())
	}

	// A nil tracker is a no-op everywhere (the not-watching fast path).
	var nilT *Tracker
	nilT.sweepStarted("x")
	nilT.Observe("x", engine.Progress{})
	nilT.sweepDone("x", true)
	if got := nilT.Snapshot(); got != (Progress{}) {
		t.Errorf("nil tracker snapshot = %+v", got)
	}
}
