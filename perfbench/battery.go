package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/engine/dist"
	"dsa/internal/experiments"
	"dsa/internal/metrics"
	"dsa/internal/workload/catalog"
)

// goldenPath is the paper-exact seed-0 battery, as the CLI prints it.
var goldenPath = filepath.Join("internal", "experiments", "testdata", "all_tables.golden")

// timedExec wraps the battery-wide executor. While a tracer is
// installed it records a span per Execute call (one sweep, or one
// engine pass of a sweep) and, for cells that run in this process, a
// span per cell; with none installed it adds one atomic load per
// sweep.
type timedExec struct {
	inner  engine.Executor
	tr     atomic.Pointer[tracer]
	op     atomic.Int64 // operation id of the battery in flight
	parent atomic.Int64 // its battery span id
}

func (x *timedExec) Execute(ctx context.Context, sw engine.SweepEnv, jobs []engine.Job, report func(engine.Result)) {
	tr := x.tr.Load()
	if tr == nil || len(jobs) == 0 {
		x.inner.Execute(ctx, sw, jobs, report)
		return
	}
	called := time.Now()
	op, parent, sweepID := x.op.Load(), x.parent.Load(), tr.id()
	name, _, _ := strings.Cut(jobs[0].Key, "/")
	wrapped := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		run, key := j.Run, j.Key
		j.Run = func(ctx context.Context, env engine.Env) (interface{}, error) {
			start := time.Now()
			v, err := run(ctx, env)
			tr.record(tr.id(), sweepID, op, "cell", key, start, time.Now())
			return v, err
		}
		wrapped[i] = j
	}
	x.inner.Execute(ctx, sw, wrapped, report)
	tr.record(sweepID, parent, op, "sweep", name, called, time.Now())
}

// batteryBench runs full batteries over one executor and checks them.
type batteryBench struct {
	n       int
	exec    *timedExec
	golden  []byte
	digests map[uint64][32]byte // first output seen per seed
}

// batteryOp is one measured battery.
type batteryOp struct {
	out    []byte
	tables int
	wall   time.Duration
	alloc  float64 // MB allocated in this process
	store  catalog.Stats
}

// run executes one full battery on seed with a fresh in-memory store.
// With tr non-nil it records the battery, its sweeps, cells and table
// renders as operation op.
func (b *batteryBench) run(ctx context.Context, seed uint64, tr *tracer, op int64) (batteryOp, error) {
	store := catalog.New()
	id := tr.id()
	b.exec.tr.Store(tr)
	b.exec.op.Store(op)
	b.exec.parent.Store(id)
	var buf bytes.Buffer
	var o batteryOp
	a0 := allocMB()
	start := time.Now()
	err := experiments.StreamConfig(ctx, experiments.Config{
		Parallel:        b.n,
		BatteryParallel: b.n,
		Seed:            seed,
		Store:           store,
		Executor:        b.exec,
	}, func(t *metrics.Table) {
		r0 := time.Now()
		s := t.String()
		tr.record(tr.id(), id, op, "render", "", r0, time.Now())
		buf.WriteString(s)
		buf.WriteByte('\n')
		o.tables++
	})
	end := time.Now()
	tr.record(id, 0, op, "battery", fmt.Sprint(seed), start, end)
	b.exec.tr.Store(nil)
	o.out, o.wall, o.alloc, o.store = buf.Bytes(), end.Sub(start), allocMB()-a0, store.Stats()
	return o, err
}

// check applies the battery's correctness checks to one output.
func (b *batteryBench) check(r *result, op string, seed uint64, o batteryOp, err error) {
	switch {
	case err != nil:
		r.fail(op, "battery seed %d: %v", seed, err)
	case o.tables != len(experiments.Names()):
		r.fail(op, "battery seed %d: %d tables, want %d", seed, o.tables, len(experiments.Names()))
	case bytes.Contains(o.out, []byte("FAILED")):
		r.fail(op, "battery seed %d: FAILED row", seed)
	case seed == 0 && !bytes.Equal(o.out, b.golden):
		r.fail(op, "battery seed 0 differs from %s", goldenPath)
	}
	d := sha256.Sum256(o.out)
	if prev, ok := b.digests[seed]; !ok {
		b.digests[seed] = d
	} else if prev != d {
		r.fail(op, "battery seed %d: output differs from its first run", seed)
	}
}

func runBattery(ctx context.Context, c config) (*result, error) {
	return batteryWorkload(ctx, c, false)
}

func runBatteryDist(ctx context.Context, c config) (*result, error) {
	return batteryWorkload(ctx, c, true)
}

// distPools is what battery-dist measures across its pools.
type distPools struct {
	stats []dist.Stats // one per pool
	rssMB float64      // largest sum of one pool's workers' VmHWM
}

// newPool starts a dist.Pool of nproc dsafig worker children. They
// spawn on the pool's first sweep, inside the timed battery.
func newPool(c config) (*dist.Pool, error) {
	return dist.NewPool(dist.Options{
		Workers: c.nproc,
		Command: filepath.Join(c.bin, "dsafig"),
		Args:    []string{"worker"},
	})
}

// close reads the workers' peak RSS, closes the pool, which reaps them,
// and fails op if any of its cells ran in-process or were lost to a
// crash.
func (d *distPools) close(r *result, op string, seed uint64, p *dist.Pool) {
	var rss float64
	for _, pid := range children() {
		if v, err := peakRSSMB(pid); err == nil {
			rss += v
		}
	}
	d.rssMB = max(d.rssMB, rss)
	p.Close()
	st := p.Stats()
	if st.Local != 0 || st.Crashes != 0 {
		r.fail(op, "seed %d: %d cells ran in-process, %d crashed", seed, st.Local, st.Crashes)
	}
	d.stats = append(d.stats, st)
}

// batteryWorkload is the body of the battery and battery-dist
// workloads: back-to-back full batteries at Parallel = BatteryParallel
// = nproc, a fresh store per battery, cycling the seed list. battery
// runs them on one in-process battery.Pool. battery-dist starts a
// fresh dist.Pool of nproc dsafig worker children for each battery, as
// each `dsafig -workers` run does, so no battery finds workloads a
// previous one left in the workers' catalogs.
func batteryWorkload(ctx context.Context, c config, distributed bool) (*result, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	r := newResult()
	seeds := batterySeeds(c.seed)
	b := &batteryBench{n: c.nproc, exec: &timedExec{}, golden: golden, digests: map[uint64][32]byte{}}
	var pools distPools
	h := newHostRef(c.nproc)
	// runOn runs one battery on a fresh pool (battery-dist) or the
	// in-process one, and checks it.
	runOn := func(name string, seed uint64, tr *tracer, op int64) (batteryOp, error) {
		var pool *dist.Pool
		if distributed {
			p, err := newPool(c)
			if err != nil {
				return batteryOp{}, err
			}
			pool, b.exec.inner = p, p
		} else if b.exec.inner == nil {
			b.exec.inner = battery.NewPool(c.nproc)
		}
		o, err := b.run(ctx, seed, tr, op)
		r.attempted++
		b.check(r, name, seed, o, err)
		if pool != nil {
			pools.close(r, name, seed, pool)
		}
		return o, nil
	}

	// Set-up: build the executor and run one checked seed-0 battery,
	// which grows the heap (and, on battery-dist, spawns and reaps one
	// pool of workers).
	// The host reference kernel runs before the first set-up and after
	// each set-up and battery.
	var setups []hostTime
	h.tick()
	for i := 0; i < setupRounds; i++ {
		b.exec.inner = nil
		w := openWindow()
		t0 := time.Now()
		if _, err := runOn(fmt.Sprintf("setup-%d", i), 0, nil, 0); err != nil {
			return nil, err
		}
		t := time.Since(t0)
		avail := w.avail()
		h.tick()
		setups = append(setups, hostTime{ms(t), avail})
	}
	pools.stats = nil

	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	var ops []hostTime
	var cpus, tracedMS, plainMS, allocs, failedRows []float64
	var stores []catalog.Stats
	used := map[uint64]bool{}
	deadline := time.Now().Add(c.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		// A traced run alternates traced and untraced batteries on the
		// same seed, so their difference is the tracing overhead.
		seed, optr := seeds[i%len(seeds)], (*tracer)(nil)
		if c.traced {
			seed = seeds[(i/2)%len(seeds)]
			if i%2 == 0 {
				optr = tr
			}
		}
		// Closing a pool reaps its workers, so their CPU time is in the
		// children's rusage by the time it is read.
		cpu0 := selfCPU() + childCPU()
		w := openWindow()
		o, err := runOn(fmt.Sprintf("battery-%d", i), seed, optr, int64(i+1))
		cpu := selfCPU() + childCPU() - cpu0
		avail := w.avail()
		if err != nil {
			return nil, err
		}
		h.tick()
		used[seed] = true
		failedRows = append(failedRows, float64(bytes.Count(o.out, []byte("FAILED:"))))
		ops = append(ops, hostTime{ms(o.wall), avail})
		cpus = append(cpus, ms(cpu))
		allocs = append(allocs, o.alloc)
		stores = append(stores, o.store)
		if optr != nil {
			tracedMS = append(tracedMS, ms(o.wall))
		} else if c.traced {
			plainMS = append(plainMS, ms(o.wall))
		}
	}

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rss += pools.rssMB
	r.set("peak_rss_mb", rss)
	p50, cpuMS := opStats(r, ops, cpus, setups, h)
	r.show("battery_s", p50/1000, "s")
	r.show("battery_cpu_s", cpuMS/1000, "s")
	r.set("alloc_mb", median(allocs))
	r.show("alloc_mb", median(allocs), "MB")
	r.note("peak RSS %.1f MB: this process plus %.1f MB for the largest pool of dist workers", rss, pools.rssMB)
	storeLayers(r, stores)
	r.set("engine.cells_failed", median(failedRows))

	if distributed {
		// Cells and steals are medians per battery; cells that ran
		// in-process or were lost are totals, 0 when the code is right.
		var total dist.Stats
		var remote, steals []float64
		for _, st := range pools.stats {
			remote = append(remote, float64(st.Remote))
			steals = append(steals, float64(st.Steals))
			total.Remote += st.Remote
			total.Local += st.Local
			total.Crashes += st.Crashes
			total.Steals += st.Steals
		}
		r.set("dist.remote_cells", median(remote))
		r.set("dist.local_cells", float64(total.Local))
		r.set("dist.crashes", float64(total.Crashes))
		r.set("dist.steals", median(steals))
		r.note("dist, over %d pools: %s", len(pools.stats), total.Summary(c.nproc))
		// The dist output must match the in-process battery. Seed 0 is
		// already held to the golden file; every fourth other seed the
		// pool ran is re-run in-process after the timed phase.
		ref := &batteryBench{n: c.nproc, exec: &timedExec{inner: battery.NewPool(c.nproc)}, digests: map[uint64][32]byte{}}
		checked := 0
		for i, seed := range seeds {
			if i%4 != 1 || !used[seed] {
				continue
			}
			o, err := ref.run(ctx, seed, nil, 0)
			if err != nil || sha256.Sum256(o.out) != b.digests[seed] {
				r.fail("dist-vs-inprocess", "seed %d: dist output differs from the in-process battery (%v)", seed, err)
			}
			checked++
		}
		r.attempted++
		r.note("%d seeds re-run in-process and compared", checked)
	}
	if c.traced {
		traceOverhead(r, tracedMS, plainMS)
		spanLayers(r, c, tr)
		batteryLayers(r, tr.snapshot(), c.nproc)
	}
	return r, nil
}

// storeLayers reports the battery store's traffic per battery; the
// counts repeat exactly for a given seed list.
func storeLayers(r *result, stores []catalog.Stats) {
	var gen, hits, disk []float64
	for _, s := range stores {
		gen = append(gen, float64(s.Generations))
		hits = append(hits, float64(s.Hits))
		disk = append(disk, float64(s.DiskHits))
	}
	setCatalog(r, median(gen), median(hits), median(disk))
}

func setCatalog(r *result, gen, hits, disk float64) {
	r.set("catalog.generated", gen)
	r.set("catalog.hits", hits)
	r.set("catalog.disk_hits", disk)
	if total := gen + hits + disk; total > 0 {
		r.set("catalog.hit_ratio", (hits+disk)/total)
	}
}

// batteryLayers derives the engine, battery, sweep and render metrics
// from the traced batteries' spans; each is the median over batteries
// except the cell wait percentiles, taken over all traced cells.
func batteryLayers(r *result, spans []span, n int) {
	type opAcc struct {
		wall, busy, render time.Duration
		cells              int
		end                int64
		sweepEnd           map[string]int64
		sweepBusy          map[string]time.Duration
		sweepMax           map[string]time.Duration
	}
	acc := map[int64]*opAcc{}
	get := func(op int64) *opAcc {
		a := acc[op]
		if a == nil {
			a = &opAcc{sweepEnd: map[string]int64{}, sweepBusy: map[string]time.Duration{}, sweepMax: map[string]time.Duration{}}
			acc[op] = a
		}
		return a
	}
	sweeps := map[int64]span{}
	for _, s := range spans {
		if s.Name == "sweep" {
			sweeps[s.ID] = s
		}
	}
	var waits []float64
	for _, s := range spans {
		a := get(s.Op)
		switch s.Name {
		case "battery":
			a.wall, a.end = s.dur(), s.End
		case "render":
			a.render += s.dur()
		case "sweep":
			a.sweepEnd[s.Label] = max(a.sweepEnd[s.Label], s.End)
		case "cell":
			sw := sweeps[s.Parent]
			a.cells++
			a.busy += s.dur()
			a.sweepBusy[sw.Label] += s.dur()
			a.sweepMax[sw.Label] = max(a.sweepMax[sw.Label], s.dur())
			waits = append(waits, ms(time.Duration(s.Start-sw.Start)))
		}
	}
	var cells, busy, util, tail, render []float64
	per := map[string][]float64{}
	for _, a := range acc {
		if a.wall == 0 {
			continue
		}
		cells = append(cells, float64(a.cells))
		busy = append(busy, a.busy.Seconds())
		util = append(util, a.busy.Seconds()/(a.wall.Seconds()*float64(n)))
		render = append(render, a.render.Seconds())
		// Tail: from the second-to-last sweep's end to the battery's.
		ends := make([]int64, 0, len(a.sweepEnd))
		for _, e := range a.sweepEnd {
			ends = append(ends, e)
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] > ends[j] })
		if len(ends) > 1 {
			tail = append(tail, time.Duration(a.end-ends[1]).Seconds())
		}
		for name := range a.sweepEnd {
			per["sweep."+name+".busy_s"] = append(per["sweep."+name+".busy_s"], a.sweepBusy[name].Seconds())
			per["sweep."+name+".max_cell_s"] = append(per["sweep."+name+".max_cell_s"], a.sweepMax[name].Seconds())
		}
	}
	r.set("engine.cells", median(cells))
	r.set("engine.cell_busy_s", median(busy))
	r.set("engine.cell_wait_p50_ms", median(waits))
	r.set("engine.cell_wait_max_ms", maxOf(waits))
	r.set("battery.slot_util", median(util))
	r.set("battery.tail_s", median(tail))
	r.set("metrics.render_s", median(render))
	for k, v := range per {
		r.set(k, median(v))
	}
}
