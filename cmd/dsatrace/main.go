// Command dsatrace generates, inspects and converts reference traces
// in the repository's text format (see internal/trace.Encode).
//
// Usage:
//
//	dsatrace gen  -kind workingset -extent 32768 -refs 20000 > t.trace
//	dsatrace gen  -kind loop -pages 24 -passes 50 > loop.trace
//	dsatrace batch -out traces -kinds workingset,random -variants 4 -parallel 4 -progress
//	dsatrace batch -out traces -cache-dir traces.cache -workers 2 -batch 4
//	dsatrace warm -cache-dir traces.cache -kinds workingset,loop -variants 4
//	dsatrace warm -cache-dir traces.cache -machines -workload segments -refs 8000
//	dsatrace warm -cache-dir traces.cache -scenario examples/scenarios/t2-mirror.toml
//	dsatrace stat < t.trace
//	dsatrace advise -phase 2500 -span 2048 < t.trace > advised.trace
//
// Subcommands:
//
//	gen     generate a trace to stdout
//	batch   materialize a whole set of traces to files, fanned across
//	        the experiment engine (-parallel workers, -progress for
//	        cells done/failed/total and ETA on stderr) or across
//	        `dsatrace worker` child processes (-workers N, -batch B
//	        cells per protocol frame; byte-identical output).
//	        Deterministic kinds materialize once in the shared workload
//	        store and serve every variant; with -cache-dir the store is
//	        disk-backed and every trace — stochastic variants included,
//	        under keys embedding kind, parameters and derived seed — is
//	        written to the cache, so a re-run (or any sweep sharing the
//	        directory) replays instead of regenerating. Without
//	        -cache-dir, unique-seed variants bypass the store: pinning
//	        what can never be shared would only hold memory.
//	warm    pre-materialize a battery's workload keys into a cache
//	        directory — the trace keys a `dsatrace batch` with the same
//	        parameters will request (-kinds/-variants), the
//	        machine-sweep keys a `dsasim -machine all` will request
//	        (-machines; one key per distinct machine extent), and/or
//	        the workload keys a declarative sweep's cells will request
//	        (-scenario FILE,...; the same keys `dsafig -scenario` and
//	        `dsasim run -scenario` derive) — so the very first battery
//	        run against the warmed directory regenerates nothing.
//	        Idempotent: keys already cached are replayed, not
//	        rewritten.
//	stat    summarize a trace from stdin
//	advise  interleave accurate WillNeed/WontNeed advice
//
// The hidden `dsatrace worker` subcommand is the child side of
// -workers, started only by a dispatching dsatrace. `dsatrace
// serve-worker` is its TCP counterpart: `batch -remote host:port,...`
// sends cells to such servers alongside any -workers children
// (-auth-token, default $DSA_WORKER_TOKEN, must match). A remote
// worker writes its trace files and warms its -cache-dir on its own
// host — point both at shared storage when the files must land
// together.
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
	"dsa/internal/engine"
	"dsa/internal/engine/dist"
	"dsa/internal/scenario"
	"dsa/internal/sim"
	"dsa/internal/trace"
	"dsa/internal/workload"
	"dsa/internal/workload/catalog"
	"dsa/internal/workload/stock"
)

// writeTask is the dist handler that materializes and writes one trace
// file in a worker process.
const writeTask = "dsatrace/write"

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "batch":
		cmdBatch(os.Args[2:])
	case "warm":
		cmdWarm(os.Args[2:])
	case "stat":
		cmdStat()
	case "advise":
		cmdAdvise(os.Args[2:])
	case "worker":
		cmdWorker(os.Args[2:])
	case "serve-worker":
		cmdServeWorker(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dsatrace gen|batch|warm|stat|advise [flags]")
	os.Exit(2)
}

// genSpec carries the generation parameters shared by gen and batch.
type genSpec struct {
	extent uint64
	refs   int
	pages  int
	psize  uint64
	passes int
	rows   int
	cols   int
	byCols bool
}

// stochastic reports whether a kind draws from the seed (so batch
// variants differ) or is fully determined by its parameters (so the
// shared catalog materializes it once for all variants).
func stochastic(kind string) bool {
	return kind == "workingset" || kind == "random"
}

// genTrace builds one trace of the given kind.
func genTrace(kind string, seed uint64, g genSpec) (trace.Trace, error) {
	switch kind {
	case "workingset":
		return workload.WorkingSet(sim.NewRNG(seed), workload.WorkloadWS(g.extent, g.refs))
	case "sequential":
		return workload.Sequential(g.extent, g.passes), nil
	case "random":
		return workload.UniformRandom(sim.NewRNG(seed), g.extent, g.refs), nil
	case "loop":
		return workload.Loop(g.pages, g.psize, g.passes), nil
	case "matrix":
		return workload.Matrix(g.rows, g.cols, g.byCols), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

// storeKey names one trace in the workload store. Every generation
// determinant is embedded — the kind's parameters, and the derived
// seed for stochastic kinds — so the key is valid across processes and
// runs (the disk layer's contract), and distinct specs can never
// alias one cache entry.
func storeKey(kind string, seed uint64, g genSpec) string {
	switch kind {
	case "workingset":
		return fmt.Sprintf("dsatrace/workingset/extent=%d/refs=%d@%x", g.extent, g.refs, seed)
	case "random":
		return fmt.Sprintf("dsatrace/random/extent=%d/refs=%d@%x", g.extent, g.refs, seed)
	case "sequential":
		return fmt.Sprintf("dsatrace/sequential/extent=%d/passes=%d", g.extent, g.passes)
	case "loop":
		return fmt.Sprintf("dsatrace/loop/pages=%d/psize=%d/passes=%d", g.pages, g.psize, g.passes)
	case "matrix":
		return fmt.Sprintf("dsatrace/matrix/rows=%d/cols=%d/bycols=%v", g.rows, g.cols, g.byCols)
	default:
		return "dsatrace/" + kind
	}
}

// specFlags registers the generation-parameter flags shared by gen and
// batch and returns the spec they fill.
func specFlags(fs *flag.FlagSet) *genSpec {
	g := &genSpec{}
	fs.Uint64Var(&g.extent, "extent", 32768, "name-space extent in words")
	fs.IntVar(&g.refs, "refs", 20000, "reference count")
	fs.IntVar(&g.pages, "pages", 24, "loop pages")
	fs.Uint64Var(&g.psize, "pagesize", 512, "loop page size")
	fs.IntVar(&g.passes, "passes", 10, "loop/sequential passes")
	fs.IntVar(&g.rows, "rows", 128, "matrix rows")
	fs.IntVar(&g.cols, "cols", 128, "matrix cols")
	fs.BoolVar(&g.byCols, "bycols", false, "matrix column-order traversal")
	return g
}

// args serializes the spec for the dist wire (see parseGenSpec).
func (g genSpec) args() map[string]string {
	return map[string]string{
		"extent": strconv.FormatUint(g.extent, 10),
		"refs":   strconv.Itoa(g.refs),
		"pages":  strconv.Itoa(g.pages),
		"psize":  strconv.FormatUint(g.psize, 10),
		"passes": strconv.Itoa(g.passes),
		"rows":   strconv.Itoa(g.rows),
		"cols":   strconv.Itoa(g.cols),
		"bycols": strconv.FormatBool(g.byCols),
	}
}

// parseGenSpec rebuilds a genSpec from wire args.
func parseGenSpec(a map[string]string) (genSpec, error) {
	var g genSpec
	var err error
	fail := func(field string, e error) error { return fmt.Errorf("bad %s %q: %w", field, a[field], e) }
	if g.extent, err = strconv.ParseUint(a["extent"], 10, 64); err != nil {
		return g, fail("extent", err)
	}
	if g.psize, err = strconv.ParseUint(a["psize"], 10, 64); err != nil {
		return g, fail("psize", err)
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"refs", &g.refs}, {"pages", &g.pages}, {"passes", &g.passes}, {"rows", &g.rows}, {"cols", &g.cols}} {
		if *f.dst, err = strconv.Atoi(a[f.name]); err != nil {
			return g, fail(f.name, err)
		}
	}
	if g.byCols, err = strconv.ParseBool(a["bycols"]); err != nil {
		return g, fail("bycols", err)
	}
	return g, nil
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "workingset", "workingset|sequential|random|loop|matrix")
	seed := fs.Uint64("seed", 1, "random seed")
	g := specFlags(fs)
	_ = fs.Parse(args)

	tr, err := genTrace(*kind, *seed, *g)
	if err != nil {
		fail(err)
	}
	if err := trace.Encode(os.Stdout, tr); err != nil {
		fail(err)
	}
}

// registerWorkerTasks installs the handlers a `dsatrace worker`
// process serves; the handler and the in-process job closure both call
// writeTrace, so distribution changes no output byte.
func registerWorkerTasks() {
	dist.Handle(writeTask, func(ctx context.Context, c dist.Call) (interface{}, error) {
		g, err := parseGenSpec(c.Spec.Args)
		if err != nil {
			return nil, err
		}
		seed, err := strconv.ParseUint(c.Spec.Args["seed"], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", c.Spec.Args["seed"], err)
		}
		return writeTrace(c.Env.Catalog, c.Spec.Args["kind"], c.Spec.Args["path"], seed, g)
	})
}

// cmdWorker is the hidden child side of `dsatrace batch -workers`.
func cmdWorker(args []string) {
	registerWorkerTasks()
	if err := cliflags.RunWorker("dsatrace", args); err != nil {
		fail(err)
	}
}

// cmdServeWorker is the TCP counterpart of cmdWorker: it serves the
// same batch cells to dialing `dsatrace batch -remote` pools.
func cmdServeWorker(args []string) {
	registerWorkerTasks()
	if err := cliflags.RunServeWorker("dsatrace", args); err != nil {
		fail(err)
	}
}

// getTrace materializes one trace through the store: the single
// dispatch behind `batch` and `warm`, so a warmed cache directory
// holds exactly what a later batch will ask for. A stochastic trace's
// key embeds its unique variant seed, so it can never be shared within
// a run — it goes through GetOnce, which replays from (and writes to)
// the disk layer without pinning the trace in memory: one stochastic
// trace is resident at a time no matter how many variants the batch
// asks for. Deterministic kinds are shared by every variant and use
// the pinning path.
func getTrace(cat *catalog.Catalog, kind string, seed uint64, g genSpec) (trace.Trace, error) {
	gen := func() (trace.Trace, error) { return genTrace(kind, seed, g) }
	if stochastic(kind) {
		return catalog.GetOnce(cat, storeKey(kind, seed, g), gen)
	}
	return catalog.Get(cat, storeKey(kind, seed, g), gen)
}

// writeTrace materializes one trace through the store and encodes it
// to its output file: the single implementation behind the in-process
// batch cell and the worker handler.
func writeTrace(cat *catalog.Catalog, kind, path string, seed uint64, g genSpec) (string, error) {
	tr, err := getTrace(cat, kind, seed, g)
	if err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.Encode(f, tr); err != nil {
		f.Close()
		os.Remove(path) // never leave a truncated trace behind
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return "", err
	}
	return fmt.Sprintf("%s: %d events", path, len(tr)), nil
}

// batchSpec is one batch output: a trace kind, its output path, and
// its (variant-derived for stochastic kinds) seed.
type batchSpec struct {
	kind string
	path string
	seed uint64
}

// batchSpecs expands -kinds × -variants into the batch's output specs
// — the single derivation behind `dsatrace batch` and `dsatrace warm`,
// so a warmed cache directory holds exactly the keys a later batch
// will ask for. shared counts the specs whose store key aliases an
// earlier spec's (the deterministic kinds' extra variants).
func batchSpecs(out, kinds string, variants int, seed uint64, g genSpec) (specs []batchSpec, shared int) {
	seen := make(map[string]bool)
	seenKeys := make(map[string]bool)
	for _, kind := range strings.Split(kinds, ",") {
		kind = strings.TrimSpace(kind)
		if kind == "" || seen[kind] {
			continue // a repeated kind would race two jobs onto one output file
		}
		seen[kind] = true
		for v := 0; v < variants; v++ {
			sp := batchSpec{kind: kind, seed: seed,
				path: filepath.Join(out, fmt.Sprintf("%s-%d.trace", kind, v))}
			if stochastic(kind) {
				// Unique seed per variant; the store key embeds it, so
				// variants share nothing with each other but everything
				// with their own replay on a warm cache.
				sp.seed = sim.SeedFor(seed, fmt.Sprintf("dsatrace/%s/variant=%d", kind, v))
			}
			if key := storeKey(kind, sp.seed, g); seenKeys[key] {
				shared++
			} else {
				seenKeys[key] = true
			}
			specs = append(specs, sp)
		}
	}
	return specs, shared
}

// cmdBatch materializes kinds × variants traces to files through the
// experiment engine: one job per output file, fanned across -parallel
// goroutines or -workers child processes, sharing one workload store
// so identical specs (all variants of a deterministic kind, or
// anything already in the -cache-dir) generate exactly once.
func cmdBatch(args []string) {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	var (
		out      = fs.String("out", "traces", "output directory (created if missing)")
		kinds    = fs.String("kinds", "workingset,sequential,random,loop,matrix", "comma-separated trace kinds")
		variants = fs.Int("variants", 1, "seed variants per kind")
	)
	sw := cliflags.Register(fs, "dsatrace", 1)
	g := specFlags(fs)
	_ = fs.Parse(args)
	stopProfiles, err := sw.StartProfiles()
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	if *variants < 1 {
		fail(fmt.Errorf("batch: -variants %d < 1", *variants))
	}
	if sw.BatteryParallel > 1 {
		// batch is a single sweep over output files; there is no battery
		// of sweeps to interleave.
		fail(fmt.Errorf("batch: -battery-parallel has no effect here (batch is one sweep); drop the flag"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	specs, shared := batchSpecs(*out, *kinds, *variants, sw.Seed, *g)

	store := sw.Store()
	opts := engine.Options{Parallel: sw.Parallel, Seed: sw.Seed, Catalog: store}
	if sw.Progress {
		opts.OnProgress = func(p engine.Progress) {
			fmt.Fprintf(os.Stderr, "dsatrace: batch: %s\n", p)
		}
	}
	pool, err := sw.Pool()
	if err != nil {
		fail(err)
	}
	if pool != nil {
		defer pool.Close()
		opts.Executor = pool
	}
	eng := engine.New(opts)
	jobs := make([]engine.Job, len(specs))
	for i, sp := range specs {
		sp := sp
		specArgs := g.args()
		specArgs["kind"] = sp.kind
		specArgs["path"] = sp.path
		specArgs["seed"] = strconv.FormatUint(sp.seed, 16)
		jobs[i] = engine.Job{
			Key:  "batch/" + sp.path,
			Spec: &engine.Spec{Task: writeTask, Workload: sp.kind, Args: specArgs},
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				return writeTrace(env.Catalog, sp.kind, sp.path, sp.seed, *g)
			},
		}
	}
	var firstErr error
	wrote := 0
	eng.Stream(context.Background(), jobs, func(r engine.Result) {
		if r.Err != nil {
			// The same per-cell line prefixing the dist pool applies to
			// worker stderr: every line of a failure names its cell, so
			// FAILED rows in batch output stay attributable even when
			// the error spans lines (e.g. a contained panic's value).
			fmt.Fprintf(dist.Prefixed(os.Stderr, "dsatrace: "+r.Key+": "), "FAILED: %v\n", r.Err)
			if firstErr == nil {
				firstErr = r.Err
			}
			return
		}
		wrote++
		fmt.Println(r.Value.(string))
	})
	// The sharing count is structural — how many jobs' store keys alias
	// an earlier job's — so this line is byte-identical however the
	// cells ran (-parallel, -workers, warm or cold cache); the runtime
	// cache traffic goes to stderr below.
	fmt.Printf("wrote %d of %d files (%d served from the shared catalog)\n",
		wrote, len(specs), shared)
	if pool != nil {
		fmt.Fprintf(os.Stderr, "dsatrace: dist: %s\n", pool.Stats().Summary(sw.PoolSlots()))
	}
	if sw.CacheDir != "" || sw.Progress {
		fmt.Fprintf(os.Stderr, "dsatrace: store: %s\n", store.Stats().Summary())
	}
	if firstErr != nil {
		fail(firstErr)
	}
}

// cmdWarm pre-materializes a battery's workload keys into a cache
// directory without running anything against them: every key is
// generated (or disk-replayed, making warm idempotent) through the
// store, so the very first battery run that shares the directory —
// `dsatrace batch -cache-dir`, `dsasim -machine all -cache-dir`, and
// their worker processes — regenerates nothing. -kinds warms the trace
// keys a `dsatrace batch` with the same parameters will request;
// -machines warms the machine-sweep keys a `dsasim -machine all
// -workload KIND` will request (one key per distinct machine extent,
// via internal/workload/stock — the same keys dsasim itself uses).
// -scenario warms the workload keys a declarative sweep file's cells
// will request (`dsafig -scenario F` / `dsasim run -scenario F`): the
// scenario's seed defaults to 0 — the paper-exact base those commands
// use — unless -seed is given explicitly.
func cmdWarm(args []string) {
	fs := flag.NewFlagSet("warm", flag.ExitOnError)
	var (
		cacheDir  = fs.String("cache-dir", "", "disk-backed workload store directory to warm (required)")
		kinds     = fs.String("kinds", "", "comma-separated trace kinds to warm for `dsatrace batch`")
		variants  = fs.Int("variants", 1, "seed variants per kind")
		seed      = fs.Uint64("seed", 1, "base seed; stochastic variant seeds derive via sim.SeedFor")
		machines  = fs.Bool("machines", false, "warm the `dsasim -machine all` workload keys")
		mkind     = fs.String("workload", "segments", "machine-sweep workload kind with -machines")
		segs      = fs.Int("segs", 32, "segment count (segments workload) with -machines")
		scale     = fs.Int("scale", 2, "capacity scale divisor with -machines")
		scenarios = fs.String("scenario", "", "comma-separated scenario files whose workload keys to warm")
	)
	g := specFlags(fs)
	_ = fs.Parse(args)

	if *cacheDir == "" {
		fail(fmt.Errorf("warm: -cache-dir is required (a memory-only warm evaporates with this process)"))
	}
	if *kinds == "" && !*machines && *scenarios == "" {
		fail(fmt.Errorf("warm: nothing to warm; pass -kinds, -machines and/or -scenario"))
	}
	if *kinds != "" && *variants < 1 {
		// The same guard batch enforces: a zero-variant warm would
		// "succeed" while warming nothing.
		fail(fmt.Errorf("warm: -variants %d < 1", *variants))
	}
	store := cliflags.Store("dsatrace", *cacheDir)
	specs, _ := batchSpecs("", *kinds, *variants, *seed, *g)
	for _, sp := range specs {
		if _, err := getTrace(store, sp.kind, sp.seed, *g); err != nil {
			fail(err)
		}
	}
	if *machines {
		if _, err := stock.WarmMachines(store, strings.ToLower(*mkind), g.refs, *segs, *seed, *scale); err != nil {
			fail(err)
		}
	}
	if *scenarios != "" {
		// Scenario runs default to seed 0 (paper-exact), while warm's
		// trace/machine keys default to seed 1 — so warm a scenario at 0
		// unless the user said -seed themselves.
		scenarioSeed := uint64(0)
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				scenarioSeed = *seed
			}
		})
		for _, path := range strings.Split(*scenarios, ",") {
			if path = strings.TrimSpace(path); path == "" {
				continue
			}
			s, err := scenario.Load(path)
			if err != nil {
				fail(err)
			}
			if _, err := s.Warm(store, scenarioSeed); err != nil {
				fail(fmt.Errorf("warm: %s: %w", s.ID(), err))
			}
		}
	}
	// Distinct keys touched = generations + disk replays (repeat
	// variants of a deterministic kind are in-memory hits, and GetOnce
	// keys never pin, so neither inflates the count).
	st := store.Stats()
	fmt.Printf("warmed %d keys into %s (%s)\n", st.Generations+st.DiskHits, *cacheDir, st.Summary())
}

func cmdStat() {
	tr, err := trace.Decode(os.Stdin)
	if err != nil {
		fail(err)
	}
	fmt.Printf("events:         %d\n", len(tr))
	fmt.Printf("reads:          %d\n", tr.Reads())
	fmt.Printf("writes:         %d\n", tr.Writes())
	fmt.Printf("advises:        %d\n", tr.Advises())
	fmt.Printf("distinct names: %d\n", len(tr.Names()))
	fmt.Printf("max name:       %d\n", tr.MaxName())
	for _, ps := range []uint64{64, 256, 512, 1024} {
		s := tr.PageString(ps)
		fmt.Printf("page string (%4d-word pages): %d transitions\n", ps, len(s))
	}
}

func cmdAdvise(args []string) {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	var (
		phase = fs.Int("phase", 2500, "references per phase")
		span  = fs.Uint64("span", 2048, "advised span in words")
	)
	_ = fs.Parse(args)
	tr, err := trace.Decode(os.Stdin)
	if err != nil {
		fail(err)
	}
	if err := trace.Encode(os.Stdout, workload.WithAdvice(tr, *phase, *span)); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsatrace:", err)
	os.Exit(1)
}
