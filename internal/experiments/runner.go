package experiments

import (
	"strconv"

	"dsa/internal/engine"
	"dsa/internal/sim"
	"dsa/internal/workload/catalog"
)

// seeded maps an experiment's historical fixed seed through the
// configured base seed. With Seed 0 every experiment uses its fixed
// workload seeds and the tables reproduce the paper-exact serial
// output byte for byte; a nonzero Seed re-derives every workload seed
// through sim.SeedFor, so the battery explores a fresh but equally
// reproducible scenario. Cells that must share a workload (the policy
// columns of one table row, the rows of one sweep) all call seeded
// with the same fixed value, so they still see identical inputs —
// only the scenario as a whole moves with the base seed.
func (c Config) seeded(fixed uint64) uint64 {
	if c.Seed == 0 {
		return fixed
	}
	return sim.SeedFor(c.Seed, "workload-seed:"+strconv.FormatUint(fixed, 10))
}

// workloadKey names a shared workload in the sweep catalog: the
// workload's stable name plus its derived seed in hex. Keying on the
// derived seed means a nonzero base seed re-keys every workload through
// sim.SeedFor, so a fresh scenario can never alias a stale
// materialization.
func (c Config) workloadKey(name string, fixed uint64) string {
	return name + "@" + strconv.FormatUint(c.seeded(fixed), 16)
}

// catalogHook, when non-nil, observes each sweep's catalog as it is
// created (test instrumentation).
var catalogHook func(sweep string, c *catalog.Catalog)

// newEngine builds the engine for one sweep: the sweep's catalog — a
// child scope of the battery store (engine.New makes a fresh one when
// the config has no store) — plus the configured parallelism, seed,
// executor, and the progress observer bound to the sweep's title.
func newEngine(c Config, sweep string) *engine.Engine {
	opts := engine.Options{Parallel: c.Parallel, Seed: c.Seed, Catalog: c.Store.Child(), Executor: c.Executor}
	if obs := c.OnProgress; obs != nil {
		opts.OnProgress = func(p engine.Progress) { obs(sweep, p) }
	}
	eng := engine.New(opts)
	if catalogHook != nil {
		catalogHook(sweep, eng.Catalog())
	}
	return eng
}

// shared materializes a named workload in the sweep's catalog exactly
// once — no matter how many cells declare it, at any parallelism — and
// hands every cell the same immutable value. gen receives a fresh RNG
// seeded exactly as the old per-cell generation was, so sharing changes
// no byte of any table; it only deletes the duplicated generation work.
// Callers must treat the returned value as read-only (see the catalog
// package doc for the immutability contract).
func shared[T any](env engine.Env, c Config, name string, fixed uint64, gen func(rng *sim.RNG) (T, error)) (T, error) {
	return catalog.Get(env.Catalog, c.workloadKey(name, fixed), func() (T, error) {
		return gen(sim.NewRNG(c.seeded(fixed)))
	})
}

// cell is one experiment cell: a stable key plus a producer of the
// rows that cell contributes to its table. The env carries the cell's
// deterministic RNG and the sweep's shared workload catalog.
type cell struct {
	key string
	run func(env engine.Env) (engine.RowBatch, error)
}

// valueCell is a cell that yields a typed intermediate value instead
// of finished rows — for experiments whose rows need cross-cell
// context (e.g. Figure 4 normalizes every row by the no-TLB baseline).
// Value sweeps register with registerValueSweep and run with
// runValueSweep.
type valueCell[T any] struct {
	key string
	run func(env engine.Env) (T, error)
}

// oneRow wraps a single row as the batch a cell returns.
func oneRow(cells ...interface{}) engine.RowBatch {
	return engine.RowBatch{cells}
}
