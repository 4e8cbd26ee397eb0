package experiments

import (
	"context"
	"fmt"

	"dsa/internal/engine"
	"dsa/internal/engine/dist"
	"dsa/internal/metrics"
)

// DistTask is the worker-side handler name for experiment cells. A
// worker process (any binary that links this package and runs
// dist.WorkerMain) rebuilds a cell from {sweep id, cell key} plus the
// sweep's base seed: the cell builders are pure functions of the
// config's Seed, so the registry plus the seed IS the cell — nothing
// else crosses the wire. Workloads re-materialize in the worker's own
// catalog from their "<name>@<seed>" keys.
const DistTask = "experiments/cell"

// anyCell is the registry's uniform cell shape: a stable key plus an
// untyped producer, covering both row-batch cells and typed value
// cells.
type anyCell struct {
	key string
	run func(env engine.Env) (interface{}, error)
}

// sweepDef is one registered experiment sweep: its stable id (the wire
// name), presentation (title, header for table sweeps) and the builder
// that reconstructs its cells from a Config. Builders must be pure
// functions of the config's Seed — the only field a worker receives:
// the same seed must yield the same cells in the same order in every
// process, or distribution would not be byte-identical.
type sweepDef struct {
	id     string
	title  string
	header []string
	build  func(c Config) []anyCell
	// spec, when non-nil, overrides the wire spec jobs carry — the seam
	// declarative scenarios use: their cells travel under the
	// scenario/cell task (source included), not the compiled-in
	// registry's DistTask.
	spec func(cellKey string) *engine.Spec
}

var sweepRegistry = map[string]*sweepDef{}

func addSweep(d *sweepDef) *sweepDef {
	if d.id == "" || d.build == nil {
		panic("experiments: sweep needs an id and a builder")
	}
	if _, dup := sweepRegistry[d.id]; dup {
		panic(fmt.Sprintf("experiments: sweep %q registered twice", d.id))
	}
	sweepRegistry[d.id] = d
	return d
}

// anyCeller is a cell shape the registry can erase to an anyCell.
type anyCeller interface{ asAny() anyCell }

func (c cell) asAny() anyCell {
	return anyCell{key: c.key, run: func(env engine.Env) (interface{}, error) { return c.run(env) }}
}

func (c valueCell[T]) asAny() anyCell {
	return anyCell{key: c.key, run: func(env engine.Env) (interface{}, error) { return c.run(env) }}
}

// eraseCells lifts a typed cell builder to the registry's uniform
// shape.
func eraseCells[C anyCeller](build func(Config) []C) func(Config) []anyCell {
	return func(c Config) []anyCell {
		cells := build(c)
		out := make([]anyCell, len(cells))
		for i, cl := range cells {
			out[i] = cl.asAny()
		}
		return out
	}
}

// registerSweep registers a table sweep whose cells yield RowBatches.
func registerSweep(id, title string, header []string, build func(Config) []cell) *sweepDef {
	return addSweep(&sweepDef{id: id, title: title, header: header, build: eraseCells(build)})
}

// registerValueSweep registers a sweep whose cells yield typed
// intermediate values (collected with runValueSweep for cross-cell
// aggregation such as Figure 4's baseline normalization).
func registerValueSweep[T any](id, title string, build func(Config) []valueCell[T]) *sweepDef {
	return addSweep(&sweepDef{id: id, title: title, build: eraseCells(build)})
}

// jobs turns the sweep's cells into engine jobs. Every job carries a
// Spec naming this sweep and cell, so an out-of-process executor can
// rebuild and run the cell in a worker; in-process execution uses the
// closure directly. Both paths run the same builder output, so output
// bytes cannot depend on where a cell ran.
func (d *sweepDef) jobs(c Config) []engine.Job {
	cells := d.build(c)
	jobs := make([]engine.Job, len(cells))
	for i, cl := range cells {
		cl := cl
		spec := &engine.Spec{Task: DistTask, Args: map[string]string{"sweep": d.id, "cell": cl.key}}
		if d.spec != nil {
			spec = d.spec(cl.key)
		}
		jobs[i] = engine.Job{
			Key:  cl.key,
			Spec: spec,
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				return cl.run(env)
			},
		}
	}
	return jobs
}

// runCtx executes a registered table sweep under c. A panicked cell —
// including one that hit a poisoned catalog entry — is recorded as a
// FAILED row (the rest of the sweep survives); an ordinary error
// aborts the table.
func (d *sweepDef) runCtx(ctx context.Context, c Config) (*metrics.Table, error) {
	t := &metrics.Table{Title: d.title, Header: d.header}
	eng := newEngine(c, d.title)
	if _, err := eng.FillTable(ctx, t, d.jobs(c)); err != nil {
		return nil, err
	}
	return t, nil
}

// runValueSweep executes a registered value sweep and returns the
// typed cell values in cell order. Any failure — including a contained
// panic — aborts the sweep, since a missing intermediate leaves
// nothing to aggregate against; the first failure cancels cells not
// yet started.
func runValueSweep[T any](ctx context.Context, d *sweepDef, c Config) ([]T, error) {
	eng := newEngine(c, d.title)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	results := eng.Stream(ctx, d.jobs(c), func(r engine.Result) {
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %s: %w", r.Key, r.Err)
			cancel()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([]T, len(results))
	for i, r := range results {
		v, ok := r.Value.(T)
		if !ok {
			return nil, fmt.Errorf("cell %s: value %T is not %T", r.Key, r.Value, out[i])
		}
		out[i] = v
	}
	return out, nil
}

// runRemoteCell is the worker-side handler: rebuild the named sweep's
// cells from the shipped base seed and run the one cell the request
// names, against the worker's own env (per-process catalog, key-derived
// RNG).
func runRemoteCell(ctx context.Context, c dist.Call) (interface{}, error) {
	id := c.Spec.Args["sweep"]
	d := sweepRegistry[id]
	if d == nil {
		return nil, fmt.Errorf("experiments: unknown sweep %q", id)
	}
	want := c.Spec.Args["cell"]
	for _, cl := range d.build(Config{Seed: c.Seed}) {
		if cl.key == want {
			return cl.run(c.Env)
		}
	}
	return nil, fmt.Errorf("experiments: sweep %q has no cell %q", id, want)
}

func init() {
	dist.Handle(DistTask, runRemoteCell)
	// Figure 4 cells ship typed intermediates across the wire.
	dist.RegisterValue(fig4Point{})
}
