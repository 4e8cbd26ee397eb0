package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/metrics"
	"dsa/internal/workload/catalog"
)

// namedExperiment pairs an experiment's canonical CLI name with its
// table function. The function takes the invocation's cancellation
// context and configuration explicitly, so concurrent batteries (the
// serve daemon's tenants) never share mutable state.
type namedExperiment struct {
	name string
	fn   func(ctx context.Context, c Config) (*metrics.Table, error)
}

// allExperiments is the canonical battery: every experiment in the
// paper's presentation order. StreamConfig emits tables in this order
// no matter how the battery scheduler interleaves the sweeps.
var allExperiments = []namedExperiment{
	{"t0", t0Def.runCtx},
	{"fig1", fig1Def.runCtx},
	{"fig2", fig2Def.runCtx},
	{"fig3", fig3Def.runCtx},
	{"fig4", fig4Table},
	{"t1", t1Def.runCtx},
	{"t2", t2Def.runCtx},
	{"t3", t3Def.runCtx},
	{"t4", t4Def.runCtx},
	{"t5", t5Def.runCtx},
	{"t6", t6Def.runCtx},
	{"t7", t7Def.runCtx},
	{"t8", t8Def.runCtx},
	{"t8b", t8bDef.runCtx},
	{"a1", a1Def.runCtx},
	{"a2", a2Def.runCtx},
	{"a3", a3Def.runCtx},
	{"a4", a4Def.runCtx},
	{"a5", a5Def.runCtx},
	{"a6", a6Def.runCtx},
}

// Names returns the canonical experiment names in battery order.
func Names() []string {
	out := make([]string, len(allExperiments))
	for i, e := range allExperiments {
		out[i] = e.name
	}
	return out
}

// byName resolves a (case-insensitive) experiment name: first against
// the compiled-in battery, then against registered declarative
// scenarios (by full wire id or bare scenario name).
func byName(name string) (namedExperiment, error) {
	lower := strings.ToLower(name)
	for _, e := range allExperiments {
		if e.name == lower {
			return e, nil
		}
	}
	d, err := scenarioByName(name)
	if err != nil {
		return namedExperiment{}, err
	}
	if d != nil {
		return namedExperiment{name: d.id, fn: d.runCtx}, nil
	}
	return namedExperiment{}, fmt.Errorf("unknown experiment %q", name)
}

// Resolve canonicalizes an experiment name — a compiled-in battery
// name (case-insensitive) or a registered scenario's wire id or bare
// name — without running anything. The serve daemon validates
// submissions with it so an unknown name is a 400 at POST time, not a
// failure discovered mid-stream.
func Resolve(name string) (string, error) {
	e, err := byName(name)
	if err != nil {
		return "", err
	}
	return e.name, nil
}

// Config is a per-invocation battery configuration: every setting a
// battery run takes, passed explicitly so concurrent invocations with
// distinct settings cannot tear each other (the serve daemon runs one
// battery per tenant job, each with its own seed and child store, over
// one shared executor). The zero value means: GOMAXPROCS cell workers,
// serial battery, paper-exact seed, a fresh in-memory store for the
// invocation, the in-process executor, no cost manifest, no observers.
// No setting changes a byte of output.
type Config struct {
	// Parallel bounds in-process cell workers per sweep (<= 0 means
	// GOMAXPROCS); ignored when Executor is set.
	Parallel int
	// BatteryParallel bounds how many whole sweeps run concurrently
	// (<= 1 serial, in canonical order).
	BatteryParallel int
	// Seed is the base workload seed: 0 reproduces the paper-exact
	// tables, any other value re-derives every workload (and its
	// catalog keys) through sim.SeedFor.
	Seed uint64
	// Store is the battery-scoped workload store: every sweep's catalog
	// becomes a child scope of it, so workloads shared across sweeps —
	// or replayed from its disk layer (catalog.Options.Dir) across
	// processes and runs — materialize once battery-wide. Nil installs
	// a fresh in-memory one for this invocation only;
	// catalog.Disabled() forces per-cell regeneration.
	Store *catalog.Catalog
	// Executor, if non-nil, replaces the in-process cell pool (a
	// dist.Pool, whose workers rebuild each cell from {sweep id, cell
	// key, base seed}, see DistTask; a battery pool; or the serve
	// daemon's tenant-budgeted executor).
	Executor engine.Executor
	// Costs, if non-nil, records each sweep's observed wall-clock time
	// and feeds longest-first scheduling under BatteryParallel > 1.
	Costs *battery.CostManifest
	// OnProgress observes per-sweep engine progress, tagged with the
	// sweep's title; OnBatteryProgress observes the aggregated battery
	// view (BatteryParallel > 1).
	OnProgress        func(sweep string, p engine.Progress)
	OnBatteryProgress func(battery.Progress)
}

// StreamConfig executes the named experiments (all of them when names
// is empty) as one battery under c, calling emit once per experiment
// in the order asked for, each as soon as that prefix of the battery
// has completed — so cmd/dsafig prints tables while later sweeps still
// run. Cancelling ctx aborts the battery: cells not yet started report
// the context error and the first failure is returned.
//
// The whole battery shares one workload store (c.Store, or a fresh
// in-memory one): each sweep's catalog becomes a child scope, so any
// workload key declared by more than one sweep — and, with a
// disk-backed store, any workload cached by an earlier run —
// materializes once.
//
// With BatteryParallel > 1 the sweeps themselves run concurrently — up
// to that many in flight — over one shared executor (c.Executor, or a
// battery-wide cell pool bounded by Parallel), with tables re-emitted
// in canonical order, so output is byte-identical to a serial battery.
// A sweep that fails with an ordinary error aborts the battery, as in
// a serial run: in-flight sweeps finish, sweeps not yet started are
// skipped, and what has been emitted is always a correct canonical
// prefix — ending at the first failed or skipped slot, which the abort
// may place before the failing sweep's own slot (a serial battery
// would have emitted up to the failure; the concurrent abort trades
// that tail for not running doomed sweeps). Panicking cells inside a
// sweep remain contained as FAILED rows either way.
func StreamConfig(ctx context.Context, c Config, emit func(*metrics.Table), names ...string) error {
	list := allExperiments
	if len(names) > 0 {
		list = make([]namedExperiment, len(names))
		for i, name := range names {
			e, err := byName(name)
			if err != nil {
				return err
			}
			list[i] = e
		}
	}
	if c.Store == nil {
		c.Store = catalog.New()
	}
	if c.BatteryParallel <= 1 {
		for _, e := range list {
			if err := ctx.Err(); err != nil {
				return err
			}
			start := time.Now()
			tb, err := e.fn(ctx, c)
			if err != nil {
				return err
			}
			c.Costs.Record(e.name, time.Since(start))
			emit(tb)
		}
		return nil
	}
	return runConcurrentBattery(ctx, c, list, emit)
}

// runConcurrentBattery fans whole sweeps across the battery scheduler.
func runConcurrentBattery(ctx context.Context, c Config, list []namedExperiment, emit func(*metrics.Table)) error {
	// One shared executor for every sweep of the battery. A dist pool
	// already is one (its worker processes bound total cell concurrency
	// and persist across sweeps); without one, install a battery-wide
	// cell pool so Parallel bounds cells in flight across all sweeps,
	// not per sweep.
	if c.Executor == nil {
		c.Executor = battery.NewPool(c.Parallel)
	}

	// Aggregate per-sweep engine progress battery-wide when someone is
	// watching; the per-sweep observer, if any, still sees every
	// snapshot. The teeing observer rides this invocation's config, so
	// concurrent batteries each keep their own tracker.
	var tracker *battery.Tracker
	if c.OnBatteryProgress != nil {
		tracker = battery.NewTracker(len(list), c.Store.Stats, c.OnBatteryProgress)
		prev := c.OnProgress
		c.OnProgress = func(sweep string, p engine.Progress) {
			tracker.Observe(sweep, p)
			if prev != nil {
				prev(sweep, p)
			}
		}
	}

	// The first sweep to fail cancels the battery the moment it fails
	// (not when its slot comes up in emission order), so sweeps not yet
	// started are skipped — the serial abort contract, minus the work
	// already in flight.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var errMu sync.Mutex
	var firstErr error
	units := make([]battery.Unit, len(list))
	for i, e := range list {
		e := e
		units[i] = battery.Unit{Name: e.name, Run: func(uctx context.Context) (interface{}, error) {
			tb, err := e.fn(uctx, c)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancel()
			}
			return tb, err
		}}
	}
	failed := false
	results := battery.Run(ctx, units,
		battery.Options{Parallel: c.BatteryParallel, Tracker: tracker, Costs: c.Costs.Cost},
		func(r battery.Result) {
			// Ordered emission: stop at the first failed slot, exactly
			// where the serial loop would have stopped.
			if failed {
				return
			}
			if r.Err != nil {
				failed = true
				return
			}
			emit(r.Value.(*metrics.Table))
		})
	// Feed observed sweep times back into the manifest so the next
	// battery schedules longest-first from real measurements. Failed or
	// cancelled sweeps are not recorded — their elapsed time says
	// nothing about a successful run's cost.
	for _, r := range results {
		if r.Err == nil {
			c.Costs.Record(r.Name, r.Elapsed)
		}
	}
	errMu.Lock()
	defer errMu.Unlock()
	// Report the battery-order-first real failure — the error a serial
	// battery would have returned, in the serial battery's bare shape
	// (cell errors already name their sweep through the cell key) —
	// not the chronologically-first one; skip the cancellation markers
	// our own abort painted onto sweeps ordered before it. firstErr
	// remains the fallback in case every ordered error is a
	// cancellation (it is what triggered them).
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			return r.Err
		}
	}
	return firstErr
}
