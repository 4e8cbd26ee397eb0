// Package battery is the sweep-level scheduler above internal/engine:
// where the engine fans the cells of one sweep across a worker pool,
// battery.Run fans whole sweeps of an experiment battery across a
// bounded number of concurrently running sweeps — over one shared
// executor, so workers (goroutines or dist worker processes) and their
// workload caches persist across the battery instead of being torn
// down and respawned per sweep.
//
// The battery extends the engine's three safety properties one level
// up:
//
//   - Deterministic output. Sweeps complete in whatever order
//     scheduling allows, but results are re-emitted in unit order as
//     each prefix completes, so a battery's aggregate output is
//     byte-identical to running the same sweeps serially.
//   - Fault containment. A sweep whose cells panic already surfaces as
//     FAILED rows inside its own table (the engine's contract); a unit
//     function that itself panics is recovered here and recorded as a
//     failed Result instead of sinking the battery.
//   - Bounded concurrency. Options.Parallel bounds how many sweeps are
//     in flight; a Budget bounds how many cells run battery-wide (split
//     fairly across tenants for the serve daemon), so the
//     -parallel/-workers budget is a total budget, not a per-sweep one.
//
// Progress is aggregated battery-wide by Tracker: sweeps done/running,
// cells done/failed/total across every started sweep, the shared
// store's traffic, and an ETA.
package battery

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"dsa/internal/engine"
	"dsa/internal/workload/catalog"
)

// Unit is one schedulable sweep: a stable name (its canonical identity
// in emission order and progress reports) plus the function that runs
// it. Run receives the battery's cancellation context; a unit that
// ignores it still completes, it just cannot be interrupted.
type Unit struct {
	Name string
	Run  func(ctx context.Context) (interface{}, error)
}

// Result records the outcome of one unit.
type Result struct {
	// Name echoes the unit's name.
	Name string
	// Index is the unit's position in the submitted slice.
	Index int
	// Value is what Run returned (nil on failure).
	Value interface{}
	// Err is non-nil if the unit failed: Run returned an error, the
	// battery was cancelled before the unit started, or the unit
	// function panicked (then Err wraps the recovered value).
	Err error
	// Elapsed is the unit's observed wall-clock run time (zero for
	// units cancelled before they started). Callers feed it back into a
	// CostManifest so the next battery run can schedule longest-first.
	Elapsed time.Duration
}

// Options configures a battery run.
type Options struct {
	// Parallel bounds how many sweeps run concurrently; <= 1 means
	// serial, and the scheduler still goes
	// through the same ordered-emission path so bytes cannot differ.
	Parallel int
	// Tracker, if non-nil, receives sweep lifecycle events and renders
	// battery-wide progress snapshots.
	Tracker *Tracker
	// Costs, if non-nil, reports the expected cost of a unit by name
	// (typically CostManifest.Cost). With Parallel > 1, units with known
	// costs are fed to workers longest-first so the battery's makespan
	// is bounded by the widest sweep instead of whichever straggler was
	// declared last; unknown units trail in declaration order. Emission
	// order — and therefore output bytes — is unaffected.
	Costs func(name string) (time.Duration, bool)
}

// Run executes every unit with at most o.Parallel sweeps in flight and
// calls emit (when non-nil) once per unit in unit order, each as soon
// as that prefix of the battery has completed — so tables stream out
// in canonical order no matter which sweep finishes first. It returns
// the full result slice indexed like units. Cancellation marks every
// unit not yet started with ctx.Err(); units already running finish
// (their own engines decide how they react to ctx).
func Run(ctx context.Context, units []Unit, o Options, emit func(Result)) []Result {
	results := make([]Result, len(units))
	if len(units) == 0 {
		return results
	}
	width := o.Parallel
	if width < 1 {
		width = 1
	}
	if width > len(units) {
		width = len(units)
	}

	done := make(chan int, len(units))
	var mergeWG sync.WaitGroup
	if emit != nil {
		mergeWG.Add(1)
		go func() {
			defer mergeWG.Done()
			// Emit in unit order — the engine.Stream discipline, one
			// level up.
			engine.MergeOrdered(done, func(i int) { emit(results[i]) })
		}()
	}

	feed := make(chan int)
	var wg sync.WaitGroup
	finish := func(i int, r Result) {
		results[i] = r
		o.Tracker.sweepDone(units[i].Name, r.Err != nil)
		done <- i
	}
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				o.Tracker.sweepStarted(units[i].Name)
				finish(i, runUnit(ctx, i, units[i]))
			}
		}()
	}
	// Feed order is a scheduling choice only — results re-emit in unit
	// order regardless — so with width > 1 and recorded costs, feed
	// longest-first to shorten the makespan. Serial batteries keep
	// declaration order (reordering buys nothing at width 1).
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	if width > 1 && o.Costs != nil {
		order = ScheduleOrder(len(units), o.Costs, func(i int) string { return units[i].Name })
	}
	for n, i := range order {
		select {
		case feed <- i:
		case <-ctx.Done():
			// Mark this and all remaining units cancelled; workers drain
			// nothing further. These units never started, so account them
			// as skipped rather than as a running sweep finishing.
			for _, j := range order[n:] {
				o.Tracker.sweepSkipped(units[j].Name)
				results[j] = Result{Name: units[j].Name, Index: j, Err: ctx.Err()}
				done <- j
			}
			close(feed)
			wg.Wait()
			close(done)
			mergeWG.Wait()
			return results
		}
	}
	close(feed)
	wg.Wait()
	close(done)
	mergeWG.Wait()
	return results
}

// runUnit executes one unit with panic containment: a sweep function
// that dies becomes a failed Result, and the rest of the battery
// completes — the engine's per-cell posture applied per sweep.
func runUnit(ctx context.Context, index int, u Unit) (res Result) {
	res = Result{Name: u.Name, Index: index}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			stack := make([]byte, 8192)
			stack = stack[:runtime.Stack(stack, false)]
			res.Value = nil
			res.Err = fmt.Errorf("battery: sweep %q panicked: %v\n%s", u.Name, p, stack)
		}
	}()
	res.Value, res.Err = u.Run(ctx)
	return res
}

// Budget is the battery-wide cell budget: total slots shared by every
// sweep that runs under it, so the total bounds the number of cells in
// flight no matter how many sweeps run concurrently. The slots are
// split fairly across tenants (the serve daemon's clients), each
// capped at perTenant concurrently running cells. When a slot frees
// while several capped tenants have cells waiting, it goes to a tenant
// with the fewest running cells — ties broken by a random draw
// (Rabin's randomized mutual-exclusion posture: fairness from a coin
// flip, not a queue that can encode starvation) — and within one
// tenant strictly FIFO, so cell order stays deterministic per job. A
// single-tenant budget (NewPool) is a plain counting semaphore.
type Budget struct {
	mu        sync.Mutex
	free      int
	perTenant int
	running   map[string]int
	queues    map[string][]chan struct{}
}

// NewBudget builds a budget of total battery-wide cell slots (<= 0
// means GOMAXPROCS), at most perTenant of which one tenant may hold at
// once (<= 0 or > total means no per-tenant cap below the total).
func NewBudget(total, perTenant int) *Budget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if perTenant <= 0 || perTenant > total {
		perTenant = total
	}
	return &Budget{
		free:      total,
		perTenant: perTenant,
		running:   make(map[string]int),
		queues:    make(map[string][]chan struct{}),
	}
}

// Total reports the battery-wide slot count.
func (b *Budget) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.free
	for _, r := range b.running {
		n += r
	}
	return n
}

// Running reports tenant's currently held slots (test instrumentation).
func (b *Budget) Running(tenant string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.running[tenant]
}

// Acquire blocks until tenant holds a cell slot or ctx is done. A
// tenant below its cap with free slots and no earlier waiters of its
// own proceeds immediately; otherwise it queues FIFO behind its own
// waiters and competes fairly with other tenants for each freed slot.
func (b *Budget) Acquire(ctx context.Context, tenant string) error {
	b.mu.Lock()
	if b.free > 0 && b.running[tenant] < b.perTenant && len(b.queues[tenant]) == 0 {
		b.free--
		b.running[tenant]++
		b.mu.Unlock()
		return nil
	}
	grant := make(chan struct{}, 1)
	b.queues[tenant] = append(b.queues[tenant], grant)
	// A slot may be free while this tenant queues (its earlier waiters
	// kept FIFO order); let dispatch hand out whatever is grantable.
	b.dispatchLocked()
	b.mu.Unlock()
	select {
	case <-grant:
		return nil
	case <-ctx.Done():
		b.mu.Lock()
		q := b.queues[tenant]
		for i, g := range q {
			if g == grant {
				b.queues[tenant] = append(q[:i:i], q[i+1:]...)
				if len(b.queues[tenant]) == 0 {
					delete(b.queues, tenant)
				}
				b.mu.Unlock()
				return ctx.Err()
			}
		}
		b.mu.Unlock()
		// Lost the race: the grant landed while we were cancelling.
		// Take it and hand the slot straight back so it is not leaked.
		<-grant
		b.Release(tenant)
		return ctx.Err()
	}
}

// Release returns one of tenant's slots and hands it to the fairest
// eligible waiter, if any.
func (b *Budget) Release(tenant string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.running[tenant] <= 1 {
		delete(b.running, tenant)
	} else {
		b.running[tenant]--
	}
	b.free++
	b.dispatchLocked()
}

// dispatchLocked hands free slots to waiting tenants: among tenants
// with waiters and headroom under the per-tenant cap, the one with the
// fewest running cells wins each slot, ties broken uniformly at
// random. Tenants at their cap are skipped — they hold running cells,
// so a future Release always re-triggers dispatch; free slots plus
// only capped waiters therefore never deadlocks, the slots just wait
// for headroom.
func (b *Budget) dispatchLocked() {
	for b.free > 0 {
		var best []string
		min := -1
		for tenant, q := range b.queues {
			if len(q) == 0 || b.running[tenant] >= b.perTenant {
				continue
			}
			switch r := b.running[tenant]; {
			case min < 0 || r < min:
				min, best = r, append(best[:0], tenant)
			case r == min:
				best = append(best, tenant)
			}
		}
		if len(best) == 0 {
			return
		}
		tenant := best[rand.Intn(len(best))]
		grant := b.queues[tenant][0]
		b.queues[tenant] = b.queues[tenant][1:]
		if len(b.queues[tenant]) == 0 {
			delete(b.queues, tenant)
		}
		b.free--
		b.running[tenant]++
		grant <- struct{}{}
	}
}

// Pool is one tenant's cell executor over a Budget: every sweep it
// runs competes cell by cell for the budget's battery-wide slots. It
// implements engine.Executor and — unlike the engine's default
// per-sweep pool — is safe for concurrent Execute calls; each call
// still honors the engine's executor contract (exactly-once reporting,
// key-derived seeding via engine.RunJob, cancelled jobs reported with
// ctx.Err()), so no budget changes an output byte.
type Pool struct {
	b      *Budget
	tenant string
}

// NewPool returns a single-tenant executor with n battery-wide cell
// slots (n <= 0 means GOMAXPROCS).
func NewPool(n int) *Pool { return NewBudget(n, 0).Executor("") }

// Executor returns the executor that runs cells under tenant's share
// of the budget: the serve daemon installs one per job.
func (b *Budget) Executor(tenant string) *Pool { return &Pool{b: b, tenant: tenant} }

// Total reports the battery-wide cell budget.
func (p *Pool) Total() int { return p.b.Total() }

// Execute implements engine.Executor over the shared slots.
func (p *Pool) Execute(ctx context.Context, sw engine.SweepEnv, jobs []engine.Job, report func(engine.Result)) {
	var wg sync.WaitGroup
	for i := range jobs {
		if err := p.b.Acquire(ctx, p.tenant); err != nil {
			for j := i; j < len(jobs); j++ {
				report(engine.Result{Key: jobs[j].Key, Index: j, Err: err})
			}
			wg.Wait()
			return
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.b.Release(p.tenant)
			report(engine.RunJob(ctx, i, jobs[i], sw.Seed, sw.Catalog))
		}(i)
	}
	wg.Wait()
}

// Progress is a battery-wide snapshot, delivered to the Tracker's
// observer whenever a sweep starts or finishes and after every cell of
// every running sweep.
type Progress struct {
	// Sweeps is the number of units in the battery.
	Sweeps int
	// SweepsDone is the number of completed units (including failed
	// and cancelled ones).
	SweepsDone int
	// SweepsFailed is the number of completed units whose Result.Err
	// was non-nil.
	SweepsFailed int
	// SweepsRunning is the number of units currently in flight.
	SweepsRunning int
	// Cells is the total cell count across every sweep that has
	// reported progress so far; sweeps not yet started contribute
	// nothing, so the total grows as the battery uncovers work.
	Cells int
	// CellsDone and CellsFailed aggregate the per-sweep counters.
	CellsDone   int
	CellsFailed int
	// Elapsed is the wall-clock time since the battery started.
	Elapsed time.Duration
	// ETA extrapolates the remaining wall-clock time from completed
	// sweeps; zero until the first sweep completes and once all have.
	ETA time.Duration
	// Catalog is the battery store's traffic so far — the merged view
	// across every sweep's child scope.
	Catalog catalog.Stats
}

// String renders the snapshot the way the CLIs' -progress flags print
// it battery-wide. The final snapshot appends the store's
// cache-effectiveness summary.
func (p Progress) String() string {
	s := fmt.Sprintf("%d/%d sweeps (%d running), %d/%d cells",
		p.SweepsDone, p.Sweeps, p.SweepsRunning, p.CellsDone, p.Cells)
	if p.CellsFailed > 0 {
		s += fmt.Sprintf(", %d failed", p.CellsFailed)
	}
	if p.SweepsDone < p.Sweeps {
		if p.ETA > 0 {
			s += fmt.Sprintf(", eta %s", p.ETA.Round(time.Millisecond))
		}
	} else {
		s += fmt.Sprintf(", done in %s", p.Elapsed.Round(time.Millisecond))
		if !p.Catalog.Zero() {
			s += "; workloads: " + p.Catalog.Summary()
		}
	}
	return s
}

// Tracker aggregates per-sweep engine progress into battery-wide
// snapshots. Run drives the sweep lifecycle events; the experiments
// layer (or any caller) forwards each sweep's engine.Progress through
// Observe. All methods are safe for concurrent use and a nil Tracker
// is a no-op, so callers only build one when someone is watching.
type Tracker struct {
	mu      sync.Mutex
	start   time.Time
	sweeps  int
	done    int
	failed  int
	running int
	per     map[string]engine.Progress
	stats   func() catalog.Stats
	fn      func(Progress)
}

// NewTracker builds a tracker for a battery of n sweeps. stats, when
// non-nil, supplies the battery store's merged catalog traffic for
// each snapshot (typically the root store's Stats method); fn receives
// every snapshot and must not block for long — sweeps wait on it.
func NewTracker(n int, stats func() catalog.Stats, fn func(Progress)) *Tracker {
	return &Tracker{
		start:  time.Now(),
		sweeps: n,
		per:    make(map[string]engine.Progress, n),
		stats:  stats,
		fn:     fn,
	}
}

// Observe folds one sweep's engine progress into the battery view and
// delivers a fresh snapshot.
func (t *Tracker) Observe(sweep string, p engine.Progress) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.per[sweep] = p
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.deliver(snap)
}

// Sweeps returns the names of every sweep that has reported progress,
// sorted (test instrumentation).
func (t *Tracker) Sweeps() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.per))
	for n := range t.per {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the current battery-wide view without delivering it.
func (t *Tracker) Snapshot() Progress {
	if t == nil {
		return Progress{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *Tracker) sweepStarted(string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.running++
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.deliver(snap)
}

func (t *Tracker) sweepDone(_ string, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.running--
	t.done++
	if failed {
		t.failed++
	}
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.deliver(snap)
}

// sweepSkipped accounts a unit cancelled before it ever started: done
// (and failed) without a matching start, so running stays balanced.
func (t *Tracker) sweepSkipped(string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done++
	t.failed++
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.deliver(snap)
}

func (t *Tracker) snapshotLocked() Progress {
	snap := Progress{
		Sweeps:        t.sweeps,
		SweepsDone:    t.done,
		SweepsFailed:  t.failed,
		SweepsRunning: t.running,
		Elapsed:       time.Since(t.start),
	}
	for _, p := range t.per {
		snap.Cells += p.Total
		snap.CellsDone += p.Done
		snap.CellsFailed += p.Failed
	}
	if t.stats != nil {
		snap.Catalog = t.stats()
	}
	if t.done > 0 && t.done < t.sweeps {
		snap.ETA = time.Duration(float64(snap.Elapsed) / float64(t.done) * float64(t.sweeps-t.done))
	}
	return snap
}

func (t *Tracker) deliver(p Progress) {
	if t.fn != nil {
		t.fn(p)
	}
}
