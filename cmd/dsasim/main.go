// Command dsasim runs one of the appendix machines (or the authors'
// recommended configuration) against a chosen workload and prints a
// report: fetches, space-time accounting, fragmentation and timing.
//
// Usage:
//
//	dsasim -machine atlas -workload workingset -refs 20000
//	dsasim -machine b5000 -workload segments -refs 50000 -segs 64
//	dsasim -machine recommended -workload segments
//	dsasim -machine all -parallel 8 -workload segments
//	dsasim -machine all -workers 2 -batch 4 -workload segments
//	dsasim -machine all -cache-dir traces.cache -workload segments
//	dsasim -machine all -battery-parallel 4 -workload segments
//	dsasim serve-worker -listen 0.0.0.0:7070 -cache-dir traces.cache
//	dsasim -machine all -remote host1:7070,host2:7070 -workload segments
//	dsasim run -scenario examples/scenarios/t2-mirror.toml
//	dsasim serve -listen 127.0.0.1:8080 -cache-dir sweeps.cache
//
// Machines: atlas m44 b5000 rice b8500 multics m67 recommended, or
// "all" to sweep every appendix machine concurrently through the
// experiment engine (-parallel bounds the worker pool; reports print
// in appendix order regardless of scheduling). -workers N distributes
// the sweep's cells across N `dsasim worker` child processes instead
// of goroutines (0 = in-process), -batch B ships B cells per protocol
// frame; output is byte-identical either way, and a worker crash
// surfaces as FAILED cells while the sweep completes.
// -battery-parallel N runs the machines as a battery of per-machine
// sweeps, up to N in flight over one shared executor (the -workers
// pool or a -parallel-bounded battery-wide cell pool), re-emitting
// reports in appendix order — byte-identical at any N.
// Workloads: workingset sequential random loop matrix segments. The
// sweep materializes each distinct workload once in its shared catalog
// (machines with equal linear extents replay one generation);
// -cache-dir backs that catalog with a disk cache replayed across runs
// and worker processes.
//
// -remote host:port,... adds one remote slot per listed `dsasim
// serve-worker` endpoint alongside any -workers children; -auth-token
// (default $DSA_WORKER_TOKEN) must match the servers'. A dead or
// corrupted link costs exactly its in-flight batch (contained FAILED
// cells), reconnects within the same budget as local respawns, and
// degrades to in-process execution — byte-identical output throughout.
//
// `dsasim run -scenario FILE,...` compiles declarative sweep files
// (see internal/scenario and examples/scenarios/) and runs them
// through the experiments battery — the same scheduler, store scoping
// and -workers/-remote distribution dsafig uses, with byte-identical
// output. Its -seed defaults to 0 (paper-exact), matching dsafig.
//
// `dsasim serve` runs the multi-tenant sweep service: a long-lived
// daemon owning one battery-wide cell budget (-parallel), one workload
// store (-cache-dir) and one cost manifest, accepting sweep
// submissions over HTTP (POST /sweeps with experiment names or an
// inline scenario file), streaming each job's tables byte-identical to
// the serial CLI (GET /sweeps/{id}/stream), and serving completed
// results by content-addressed key without recomputation
// (GET /results/{key}). -tenant-cells caps one tenant's concurrent
// cells, -tenant-jobs its open jobs (excess submissions get 429 +
// Retry-After). See the package dsa documentation, "Running the sweep
// service", and cmd/dsabench for the load harness.
//
// The hidden `dsasim worker` subcommand is the child side of -workers:
// it serves cell batches over the stdio protocol of
// internal/engine/dist and is started only by a dispatching dsasim.
// `dsasim serve-worker` is its TCP counterpart for -remote: it listens
// on -listen (port 0 picks a free port, announced on stderr and via
// -addr-file), requires -auth-token when set, and warms its own
// -cache-dir by content-addressed key.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dsa/internal/cliflags"
	"dsa/internal/core"
	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/engine/dist"
	"dsa/internal/experiments"
	"dsa/internal/machine"
	"dsa/internal/metrics"
	"dsa/internal/scenario"
	"dsa/internal/trace"
	"dsa/internal/workload/catalog"
	"dsa/internal/workload/stock"
)

// reportTask is the dist handler that runs one machine × workload cell
// in a worker process and returns the rendered report.
const reportTask = "dsasim/report"

// registerWorkerTasks installs the handlers a `dsasim worker` process
// serves. The handler and the in-process job closure both call
// machineReport against their process's catalog, so a distributed
// sweep is byte-identical by construction.
func registerWorkerTasks() {
	dist.Handle(reportTask, func(ctx context.Context, c dist.Call) (interface{}, error) {
		refs, err := strconv.Atoi(c.Spec.Args["refs"])
		if err != nil {
			return nil, fmt.Errorf("bad refs %q: %w", c.Spec.Args["refs"], err)
		}
		segs, err := strconv.Atoi(c.Spec.Args["segs"])
		if err != nil {
			return nil, fmt.Errorf("bad segs %q: %w", c.Spec.Args["segs"], err)
		}
		scale, err := strconv.Atoi(c.Spec.Args["scale"])
		if err != nil {
			return nil, fmt.Errorf("bad scale %q: %w", c.Spec.Args["scale"], err)
		}
		return machineReport(c.Env.Catalog, c.Spec.Machine, c.Spec.Workload, refs, segs, scale, c.Seed)
	})
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		registerWorkerTasks()
		if err := cliflags.RunWorker("dsasim", os.Args[2:]); err != nil {
			fail(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve-worker" {
		registerWorkerTasks()
		if err := cliflags.RunServeWorker("dsasim", os.Args[2:]); err != nil {
			fail(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "run" {
		cmdRun(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		cmdServe(os.Args[2:])
		return
	}
	var (
		machineName = flag.String("machine", "atlas", "machine: atlas|m44|b5000|rice|b8500|multics|m67|recommended|all")
		workloadKin = flag.String("workload", "workingset", "workload: workingset|sequential|random|loop|matrix|segments")
		refs        = flag.Int("refs", 20000, "number of references")
		segs        = flag.Int("segs", 32, "segment count (segments workload)")
		scale       = flag.Int("scale", 2, "capacity scale divisor (1 = historical sizes)")
		traceFile   = flag.String("trace", "", "replay a recorded trace file instead of a generated workload")
	)
	sw := cliflags.Register(flag.CommandLine, "dsasim", 1)
	flag.Parse()
	stopProfiles, err := sw.StartProfiles()
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	if strings.ToLower(*machineName) == "all" {
		if *traceFile != "" {
			fail(fmt.Errorf("-trace cannot be combined with -machine all"))
		}
		if err := runAll(sw, strings.ToLower(*workloadKin), *refs, *segs, *scale); err != nil {
			fail(err)
		}
		return
	}
	if sw.Workers > 0 || len(sw.Remotes()) > 0 {
		fail(fmt.Errorf("-workers/-remote require -machine all (single-machine runs have one cell)"))
	}
	if sw.BatteryParallel > 1 {
		fail(fmt.Errorf("-battery-parallel requires -machine all (single-machine runs have one sweep)"))
	}
	m, err := buildMachine(*machineName, *scale)
	if err != nil {
		fail(err)
	}
	var rep *core.Report
	if *traceFile != "" {
		rep, err = runTraceFile(m, *traceFile)
	} else {
		// A single-machine run still goes through a store, so
		// -cache-dir replays the workload across invocations.
		rep, err = runWorkload(sw.Store(), m, strings.ToLower(*workloadKin), *refs, *segs, sw.Seed)
	}
	if err != nil {
		fail(err)
	}
	fmt.Print(reportString(m, rep))
}

// cmdRun is the `dsasim run -scenario file.toml` entry point: compile
// declarative sweep files and run them through the experiments battery
// — the same scheduler, store scoping and distribution dsafig uses, so
// the output of `dsasim run -scenario F` and `dsafig -scenario F` is
// byte-identical. -seed defaults to 0 here (paper-exact semantics, as
// for dsafig) rather than dsasim's generation default of 1.
func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scenarios := fs.String("scenario", "", "comma-separated scenario files to compile and run (required)")
	sw := cliflags.Register(fs, "dsasim", 0)
	_ = fs.Parse(args)
	stopProfiles, err := sw.StartProfiles()
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	var names []string
	for _, path := range strings.Split(*scenarios, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		s, err := scenario.Load(path)
		if err != nil {
			fail(err)
		}
		names = append(names, experiments.RegisterScenario(s))
	}
	if len(names) == 0 {
		fail(fmt.Errorf("run: -scenario names no files"))
	}

	if err := experiments.StreamFlags(sw, names...); err != nil {
		fail(err)
	}
}

// runAll sweeps every appendix machine over the same workload, one
// engine job per machine, and prints the reports in appendix order as
// each prefix of the sweep completes. With -progress, cell completion
// counts and an ETA stream to stderr while reports stream to stdout.
// With -workers the cells run in that many `dsasim worker` child
// processes, -batch cells per protocol frame — byte-identical output,
// since each cell is rebuilt from {machine, workload, seed} and every
// RNG is key-derived. -remote adds one slot per `dsasim serve-worker`
// endpoint to the same pool. With -battery-parallel > 1 each machine
// becomes its own sweep and up to that many run concurrently over one
// shared executor (see runAllBattery). The sweep shares one workload
// store: machines whose workloads coincide (equal linear extents, or
// the machine-independent kinds) replay a single materialization,
// disk-backed when -cache-dir is set.
func runAll(sw *cliflags.Sweep, kind string, refs, segs, scale int) error {
	names := []string{"atlas", "m44", "b5000", "rice", "b8500", "multics", "m67"}
	store := sw.Store()
	pool, err := sw.Pool()
	if err != nil {
		return err
	}
	if pool != nil {
		defer pool.Close()
	}
	var firstErr error
	emit := func(r engine.Result) {
		if r.Err != nil {
			fmt.Printf("%s: FAILED: %v\n\n", r.Key, r.Err)
			if firstErr == nil {
				firstErr = r.Err
			}
			return
		}
		fmt.Print(r.Value.(string))
	}
	if sw.BatteryParallel > 1 {
		runAllBattery(names, store, pool, sw, kind, refs, segs, scale, emit)
	} else {
		opts := engine.Options{Parallel: sw.Parallel, Seed: sw.Seed, Catalog: store}
		if sw.Progress {
			opts.OnProgress = func(p engine.Progress) {
				fmt.Fprintf(os.Stderr, "dsasim: machine sweep: %s\n", p)
			}
		}
		if pool != nil {
			opts.Executor = pool
		}
		eng := engine.New(opts)
		jobs := make([]engine.Job, len(names))
		for i, name := range names {
			jobs[i] = machineJob(name, kind, refs, segs, sw.Seed, scale)
		}
		eng.Stream(context.Background(), jobs, emit)
	}
	if pool != nil {
		fmt.Fprintf(os.Stderr, "dsasim: dist: %s\n", pool.Stats().Summary(sw.PoolSlots()))
	}
	if sw.CacheDir != "" || sw.Progress {
		fmt.Fprintf(os.Stderr, "dsasim: store: %s\n", store.Stats().Summary())
	}
	return firstErr
}

// machineJob builds the engine job for one machine × workload cell:
// the in-process closure and the wire spec the `dsasim worker` handler
// rebuilds it from.
func machineJob(name, kind string, refs, segs int, seed uint64, scale int) engine.Job {
	return engine.Job{
		Key: "dsasim/" + name,
		Spec: &engine.Spec{
			Task: reportTask, Machine: name, Workload: kind,
			Args: map[string]string{
				"refs":  strconv.Itoa(refs),
				"segs":  strconv.Itoa(segs),
				"scale": strconv.Itoa(scale),
			},
		},
		Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
			return machineReport(env.Catalog, name, kind, refs, segs, scale, seed)
		},
	}
}

// runAllBattery is the -battery-parallel form of the machine sweep:
// every machine is its own single-cell sweep, up to batteryParallel of
// them in flight at once over one shared executor — the dist pool when
// -workers is set (its children and their caches persist across the
// whole battery), a battery-wide cell pool bounded by -parallel
// otherwise. Every sweep's catalog is a child scope of the one shared
// store, so concurrent sweeps still materialize each workload exactly
// once battery-wide, and reports are re-emitted in appendix order
// regardless of completion order: output is byte-identical to the
// serial sweep. With progress enabled, battery-wide aggregate
// snapshots (sweeps done/running, cells, store traffic) stream to
// stderr.
func runAllBattery(names []string, store *catalog.Catalog, pool *dist.Pool,
	sw *cliflags.Sweep, kind string, refs, segs, scale int, emit func(engine.Result)) {
	var exec engine.Executor = battery.NewPool(sw.Parallel)
	if pool != nil {
		exec = pool
	}
	// Machine sweep costs persist beside the workload cache, so repeat
	// -battery-parallel runs start the slowest machines first.
	var costs *battery.CostManifest
	if sw.CacheDir != "" {
		costs = battery.LoadCosts(filepath.Join(sw.CacheDir, "latency.json"))
	}
	var tracker *battery.Tracker
	if sw.Progress {
		tracker = battery.NewTracker(len(names), store.Stats, func(p battery.Progress) {
			fmt.Fprintf(os.Stderr, "dsasim: battery: %s\n", p)
		})
	}
	units := make([]battery.Unit, len(names))
	for i, name := range names {
		name := name
		units[i] = battery.Unit{Name: "dsasim/" + name, Run: func(ctx context.Context) (interface{}, error) {
			opts := engine.Options{Seed: sw.Seed, Catalog: store.Child(), Executor: exec}
			if tracker != nil {
				opts.OnProgress = func(p engine.Progress) { tracker.Observe("dsasim/"+name, p) }
			}
			eng := engine.New(opts)
			return eng.Run(ctx, []engine.Job{machineJob(name, kind, refs, segs, sw.Seed, scale)})[0], nil
		}}
	}
	results := battery.Run(context.Background(), units,
		battery.Options{Parallel: sw.BatteryParallel, Tracker: tracker, Costs: costs.Cost},
		func(r battery.Result) {
			if r.Err != nil {
				// A unit cannot fail by construction (cell failures ride
				// inside the engine.Result), but containment demands we
				// surface rather than drop it.
				emit(engine.Result{Key: r.Name, Err: r.Err})
				return
			}
			emit(r.Value.(engine.Result))
		})
	for _, r := range results {
		if r.Err == nil {
			costs.Record(r.Name, r.Elapsed)
		}
	}
	if err := costs.Save(); err != nil {
		fmt.Fprintf(os.Stderr, "dsasim: costs: %v\n", err)
	}
}

// machineReport runs one machine × workload cell and renders its
// report: the single implementation behind both the in-process sweep
// closure and the `dsasim worker` handler. cat is the running
// process's shared workload store.
func machineReport(cat *catalog.Catalog, name, kind string, refs, segs, scale int, seed uint64) (string, error) {
	m, err := buildMachine(name, scale)
	if err != nil {
		return "", err
	}
	rep, err := runWorkload(cat, m, kind, refs, segs, seed)
	if err != nil {
		return "", err
	}
	return reportString(m, rep), nil
}

// runTraceFile replays a trace recorded by dsatrace (or any tool
// emitting the trace text format).
func runTraceFile(m *machine.Machine, path string) (*core.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return nil, err
	}
	return m.RunLinear(tr)
}

func buildMachine(name string, scale int) (*machine.Machine, error) {
	switch strings.ToLower(name) {
	case "atlas":
		return machine.Atlas(scale)
	case "m44":
		return machine.M44(scale)
	case "b5000":
		return machine.B5000(scale)
	case "rice":
		return machine.Rice(scale)
	case "b8500":
		return machine.B8500(scale)
	case "multics":
		return machine.Multics(scale)
	case "m67":
		return machine.M67(scale)
	case "recommended":
		sys, err := core.New(core.Recommended(65536/scale, 1048576/scale, 1024))
		if err != nil {
			return nil, err
		}
		return &machine.Machine{
			Name:     "Recommended",
			Appendix: "§Basic Characteristics — Summary",
			Notes:    "symbolic segments; predictions; mapping only for large segments; nonuniform units",
			System:   sys,
		}, nil
	default:
		return nil, fmt.Errorf("unknown machine %q", name)
	}
}

// runWorkload materializes the machine's workload through the shared
// store (internal/workload/stock owns the keys and generators, shared
// with `dsatrace warm`) and replays it. Keys embed every generation
// determinant, so two machines whose parameters coincide share one
// materialization (in this process, across worker processes via the
// cache directory, and across runs), and two that differ can never
// alias. Replay APIs treat the trace as read-only, upholding the
// store's immutability contract.
func runWorkload(cat *catalog.Catalog, m *machine.Machine, kind string, refs, segs int, seed uint64) (*core.Report, error) {
	if kind == "segments" {
		w, err := stock.Segments(cat, segs, refs, seed)
		if err != nil {
			return nil, err
		}
		return m.RunWorkload(w)
	}
	tr, err := stock.Linear(cat, kind, stock.Extent(m), refs, seed)
	if err != nil {
		return nil, err
	}
	return m.RunLinear(tr)
}

func reportString(m *machine.Machine, rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): %s\n", m.Name, m.Appendix, m.Notes)
	fmt.Fprintf(&b, "characteristics: %s\n\n", rep.Char)
	t := &metrics.Table{Header: []string{"measure", "value"}}
	t.AddRow("elapsed (core cycles)", rep.Elapsed)
	if rep.Paging != nil {
		t.AddRow("references", rep.Paging.Refs)
		t.AddRow("page faults", rep.Paging.Faults)
		t.AddRow("page-ins", rep.Paging.PageIns)
		t.AddRow("page-outs", rep.Paging.PageOuts)
		t.AddRow("writebacks", rep.Paging.Writebacks)
		t.AddRow("prefetches", rep.Paging.Prefetches)
		t.AddRow("advice evictions", rep.Paging.AdviceEvictions)
	}
	if rep.SegStats != nil {
		t.AddRow("segment accesses", rep.SegStats.Accesses)
		t.AddRow("segment fetches", rep.SegStats.SegFaults)
		t.AddRow("segment evictions", rep.SegStats.Evictions)
		t.AddRow("compactions", rep.SegStats.Compactions)
		t.AddRow("words moved packing", rep.SegStats.MovedWords)
	}
	t.AddRow("space-time active", rep.SpaceTime.ActiveArea)
	t.AddRow("space-time waiting", rep.SpaceTime.WaitingArea)
	t.AddRow("wait fraction", rep.SpaceTime.WaitFraction())
	if rep.Frag != nil {
		t.AddRow("heap utilization", rep.Frag.Utilization())
		t.AddRow("external fragmentation", rep.Frag.ExternalFrag())
		t.AddRow("internal fragmentation", rep.Frag.InternalFrag())
	}
	fmt.Fprintln(&b, t)
	return b.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsasim:", err)
	os.Exit(1)
}
