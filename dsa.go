// Package dsa is a Go reproduction of B. Randell and C. J. Kuehner,
// "Dynamic Storage Allocation Systems" (ACM Symposium on Operating
// System Principles, Gatlinburg 1967; CACM 11(5), May 1968).
//
// The paper classifies hardware-assisted dynamic storage allocation
// systems along four largely independent characteristics — name space,
// predictive information, artificial contiguity, and uniformity of the
// unit of allocation — plus a triple of strategies (fetch, placement,
// replacement). This package is the public facade over the full
// implementation:
//
//   - NewSystem composes a runnable storage allocation system from a
//     Config choosing one value per characteristic;
//   - Recommended returns the configuration the authors favor
//     (symbolic segments, predictions accepted, mapping only for large
//     segments, nonuniform units);
//   - Machines builds the seven appendix systems (ATLAS, IBM M44/44X,
//     Burroughs B5000, Rice, Burroughs B8500, MULTICS, IBM 360/67);
//   - the workload constructors generate the reference strings and
//     allocation request streams the experiments run on.
//
// Lower-level building blocks (allocators, replacement policies,
// mapping hardware, the storage hierarchy) live in the internal
// packages and are exercised through System; the examples/ directory
// shows typical use, and cmd/dsafig regenerates every figure and table
// of the paper's evaluation material.
//
// # Usage
//
// Build and test everything (the Makefile wraps the same commands):
//
//	go build ./...
//	go test -race ./...
//	make ci
//
// Run a single appendix machine against a workload:
//
//	go run ./cmd/dsasim -machine atlas -workload workingset -refs 20000
//	go run ./cmd/dsasim -machine recommended -workload segments
//
// Sweep all seven appendix machines concurrently (reports print in
// appendix order regardless of scheduling), in-process or across
// worker processes:
//
//	go run ./cmd/dsasim -machine all -parallel 8 -workload segments
//	go run ./cmd/dsasim -machine all -workers 4 -workload segments
//
// Regenerate the paper's figures and tables:
//
//	go run ./cmd/dsafig            # everything, in order
//	go run ./cmd/dsafig t1 fig3    # selected experiments
//
// # The experiment engine
//
// Every experiment fans its independent simulation cells (one per
// machine config × workload × policy point) across the worker pool in
// internal/engine. Two flags control it on both commands:
//
//   - -parallel N bounds the pool (0 = GOMAXPROCS). Results are
//     deterministic: every cell derives all of its randomness from
//     fixed workload seeds (rebased through sim.SeedFor when -seed is
//     set), never from submission order or scheduling, so the
//     aggregated tables are byte-identical at -parallel=1 and
//     -parallel=8. The engine also hands each job a private RNG keyed
//     on (base seed, job key) for cells that want their own stream.
//   - -seed S (dsafig) rebases every workload seed. 0, the default,
//     reproduces the paper-exact tables; any other value derives a
//     fresh but equally reproducible scenario for the whole battery.
//
// A cell that panics is contained by the engine and recorded as a
// FAILED row for just that cell; the rest of the sweep completes.
//
// # Scaling a sweep
//
// Both sweep commands offer two orthogonal scaling axes:
//
//   - -parallel N fans cells across N goroutines in one process — the
//     engine's default executor. Use it when one machine's cores are
//     the budget.
//   - -workers N shards cells across N child worker processes
//     (internal/engine/dist): the dispatcher spawns `dsasim worker` /
//     `dsafig worker` / `dsatrace worker` children and ships cells as
//     {task, cell key, base seed} plus parameters over a pipe pair
//     each child inherits as fds 3 and 4, speaking exactly the
//     protocol a remote serve-worker speaks (see "Remote workers"):
//     handshake, checksummed gob frames, heartbeats. The child's
//     stdout and stderr are free for output. 0 (the default) stays
//     in-process. -batch B packs B cells into each protocol frame,
//     amortizing the round trip; on small-cell sweeps batching is
//     worth several× (see BenchmarkDistRoundTrips). A crash costs at
//     most one in-flight batch, so keep B modest (4–16) — large B
//     trades containment granularity for round-trip savings, never
//     bytes.
//
// Distribution pays only for cells that cost well above its
// overhead. BenchmarkDistRoundTrips (64 near-free cells over 2
// workers, 2-core VM) spends about 45 µs of worker-slot time per cell
// at -batch 1 and about 15 µs at -batch 8. So a cell must cost about
// 1 ms for the overhead to stay under 5% at -batch 1, or 0.3 ms at
// -batch 8. Cheaper cells run faster under -parallel, and more worker
// cores than local ones (-remote) are the only reason to ship them.
//
// The determinism guarantee is identical on both axes, and is CI-
// enforced: every cell's RNG derives from (base seed, cell key) via
// sim.SeedFor — never from scheduling — aggregation is cell-ordered,
// and workloads re-materialize in each worker's own catalog from their
// "<name>@<seed>" keys, so the immutable workload catalog is the
// serialization boundary and no workload bytes ever cross the wire.
// `-workers N` output is byte-for-byte `-parallel N` output at any
// batch size (the CI dist-smoke job diffs real multi-process sweeps —
// per-cell, batched, and cache-warm — against the in-process pool and
// fails on the first differing byte; `make dist-smoke` runs the same
// checks locally).
//
// Fault containment extends across the process boundary: a worker that
// crashes, is killed, or stops answering mid-batch costs exactly its
// in-flight cells — they surface as FAILED rows, attributably (child
// output is prefixed with the worker slot and cell key, a partial line
// in flight at the crash is flushed with its prefix rather than lost,
// and the dispatcher prints one "link retired" line naming the batch)
// — while the dispatcher respawns the slot within a bounded budget and
// the sweep completes. A slot that cannot be respawned degrades to
// running its cells in-process, so output is still complete and
// byte-identical.
// Idle workers steal queued cell batches from busy ones, so one
// expensive cell cannot idle the pool.
//
// # Remote workers
//
// The same dist protocol runs over TCP, so a sweep can shard its cells
// across other machines. Each of the three sweep commands grows a
// serve-worker subcommand that serves cells to any number of dialers:
//
//	dsasim serve-worker -listen 0.0.0.0:7077 -cache-dir /var/dsa-cache
//	dsafig  serve-worker -listen 127.0.0.1:0 -addr-file /tmp/w.addr
//
// and a -remote flag that adds one pool slot per endpoint, freely
// mixed with local -workers slots:
//
//	dsasim -machine all -remote host-a:7077,host-b:7077 -workload segments
//	dsafig -workers 2 -remote host-a:7077 -batch 8 t1 t4
//
// The wire format is the one local children speak: an 8-byte header
// (length plus CRC-32C) per frame, a version/auth handshake
// (-auth-token on both ends, defaulting to $DSA_WORKER_TOKEN; the
// token is a misconfiguration guard, not cryptographic security — run
// remote workers on trusted networks), and heartbeat frames the server
// emits while a batch computes. Heartbeats are what let the dialer
// tell a slow cell from a dead link: a healthy link is never silent
// for longer than the heartbeat interval, so only genuine link death —
// not an expensive cell — trips the per-batch deadline. Remote workers
// warm their own -cache-dir on their own disk; as everywhere else,
// only {task, cell key, seed} tuples and result rows cross the wire,
// never workload bytes.
//
// Failure semantics mirror the local pool exactly: a dropped, stalled,
// or corrupted connection (every frame is checksummed) costs only the
// cells in flight on it — FAILED rows name the worker[host:port] slot,
// and remote stderr lines are prefixed the same way — then the slot
// redials within the same bounded budget that governs local respawns
// (MaxRespawns). A slot whose budget is exhausted, or whose endpoint
// never answers, degrades to running its cells in-process, so the
// sweep always completes and -remote output stays byte-identical to
// -parallel output. The CI tcp-smoke job (`make tcp-smoke` locally)
// enforces this over real localhost TCP and runs the fault-injection
// suite — worker killed mid-batch, one-way stall, corrupt frame,
// budget exhaustion — under the race detector.
//
// # Running the battery
//
// Above the per-sweep axes sits the battery scheduler
// (internal/engine/battery): -battery-parallel N runs up to N whole
// experiments concurrently over one shared executor, instead of
// strictly one after another. It composes with the other flags rather
// than multiplying them:
//
//   - -battery-parallel × -parallel: without -workers, the battery
//     installs one battery-wide cell pool bounded by -parallel, so
//     the budget is total cells in flight across every running sweep —
//     N sweeps never mean N × parallel goroutines. Serial sweeps leave
//     cores idle during single-cell figures and aggregation tails; the
//     scheduler fills those gaps with other sweeps' cells.
//   - -battery-parallel × -workers: the dist pool is the shared
//     executor. Its worker processes — and their per-process workload
//     catalogs — persist across the whole battery instead of being
//     torn down per sweep, each worker slot serving one cell batch at
//     a time whichever sweep it came from, so -workers likewise bounds
//     total concurrency. Cancelling one sweep never disturbs a child
//     serving another.
//   - -battery-parallel × -cache-dir: every sweep's catalog is a child
//     scope of the one battery store, so concurrent sweeps still
//     materialize each shared workload exactly once (the store
//     summaries are identical to a serial run's — CI greps this), and
//     a directory pre-warmed with `dsatrace warm` makes the very first
//     battery run regenerate nothing.
//
// Output is byte-identical at any -battery-parallel: sweeps complete
// in any order, but tables are re-emitted in canonical order, and all
// determinism remains key-derived. A sweep whose cells panic still
// becomes FAILED rows in its own table while the rest of the battery
// completes; with -progress, dsafig reports aggregated battery-wide
// snapshots (sweeps done/running, cells done/failed/total, store
// traffic, ETA) instead of interleaved per-sweep lines. The CI
// battery-smoke gate (`make battery-smoke`) diffs all of this against
// the serial baseline on every push.
//
// # Declarative sweeps
//
// Beyond the compiled-in experiments, a sweep can be declared in a
// scenario file — a small TOML-subset document (internal/scenario;
// commented examples under examples/scenarios/) naming a sweep kind
// and its axes:
//
//	kind = "placement"            # or "replacement", "machines"
//	seed = 31
//	[placement]
//	heap_words = 65536
//	policies = ["first-fit", "best-fit", "two-ended"]
//	[[workload]]
//	dist = "uniform"              # uniform | exponential | bimodal |
//	min = 16                      # fixed | adversarial | phased | ...
//	max = 1024
//
// Two entry points compile and run scenario files through the same
// battery plumbing as everything above — scheduler, shared store,
// -parallel/-workers/-remote/-battery-parallel, -progress:
//
//	dsafig -scenario examples/scenarios/t2-mirror.toml
//	dsasim run -scenario examples/scenarios/adversarial-frag.toml
//
// Compilation lowers the file to exactly the cell shapes the
// compiled-in experiments produce: same policy constructors, same
// workload generators behind the same catalog keys, same row and
// header formats. The guarantee is literal — t2-mirror.toml declares
// the paper's Table 2 sweep, and CI's scenario-smoke job
// (`make scenario-smoke` locally) diffs its output byte-for-byte
// against `dsafig t2`, serially, under -parallel, and across a real
// two-process -workers pool.
//
// A scenario's identity is its wire id, "scenario/<name>@<hash>" — the
// hash taken over the file's source bytes — so declarative sweeps
// distribute unchanged: the id and source travel in each cell's spec,
// a worker compiles the source on first use (verifying it hashes back
// to the same id, so a stale or edited file can never impersonate
// another sweep), and rebuilds cells from {id, cell key, base seed}
// exactly as it does for compiled-in sweeps. Positionally a scenario
// may also be named by its bare <name> when unambiguous. Scenario
// workload keys live in the same catalog namespace as everything else,
// so `dsatrace warm -scenario FILE` pre-materializes a declarative
// battery's keys and its first -cache-dir run regenerates nothing —
// the scenario-smoke gate holds that, too.
//
// # Caching workloads
//
// Workload generation is pure and deterministic, which makes it
// cacheable at every scope. The catalog (internal/workload/catalog)
// is a scope chain: each sweep's catalog is a child of a
// battery-scoped store, so a workload key declared by several sweeps —
// or by the same experiment run twice — materializes once per battery,
// not once per sweep. All of this is automatic; two flags extend it
// across processes and runs:
//
//   - -cache-dir DIR backs the store with a content-addressed disk
//     layer: every materialized workload is written (atomically,
//     checksummed, under a versioned header) to DIR and replayed by
//     later misses anywhere the directory is shared — a warm rerun, a
//     `dsatrace batch` replay, or the -workers children, which are
//     spawned with the same flag and read the same directory. Replay
//     beats regeneration severalfold on trace-heavy sweeps
//     (BenchmarkDiskReplay), and bytes never change: cold and warm
//     runs are diffed in CI.
//   - -progress reports each sweep's cache traffic alongside its ETA
//     ("workloads: 3 generated, 6 hits, 2 disk hits, ..."), so cache
//     effectiveness is visible per sweep; dsafig and dsatrace also
//     print a battery-total store line on stderr.
//
// The cache only ever degrades toward regeneration: a corrupt,
// truncated, version-skewed or type-skewed file is logged and
// regenerated in place; an unwritable directory is logged once and the
// run continues memory-only; a value gob cannot encode stays
// memory-only. No cache state can wedge a sweep or change a table.
// Keys embed every generation parameter plus the derived seed, and
// catalog.DiskVersion must be bumped when a generator's output
// changes, so a stale cache can never replay old science. Batch
// sizing guidance: -batch amortizes protocol round trips (cheap cells
// → higher B), -cache-dir amortizes generation (expensive workloads →
// always worth it); they compose freely with -parallel/-workers.
//
// # Running the sweep service
//
// `dsasim serve` turns the battery into a long-running multi-tenant
// HTTP/JSON service (internal/serve): one daemon owns one battery-wide
// cell budget, one workload store, and one cost manifest for its
// lifetime, and any number of tenants submit sweeps against them:
//
//	dsasim serve -listen 127.0.0.1:7070 -cache-dir /var/dsa-cache \
//	    -parallel 8 -tenant-cells 4 -tenant-jobs 4
//
// The API is three verbs. POST /sweeps submits a sweep — compiled-in
// experiments by registry name, or a scenario file uploaded inline,
// plus an optional seed — and returns a job id with the result's
// content-addressed key; GET /sweeps/{id}/stream streams the job's
// emission, byte-identical to the serial CLI for the same names and
// seed; GET /results/{key} re-serves any completed result with zero
// recomputation. GET /stats exposes the daemon's counters and store
// summary. The tenant is the X-Tenant header (or one shared default):
//
//	curl -s -X POST -H 'X-Tenant: alice' \
//	    -d '{"experiments":["t2"],"seed":7}' http://127.0.0.1:7070/sweeps
//	curl -s -X POST --data-binary @examples/scenarios/t2-mirror.toml \
//	    ... # or upload the scenario source in the "scenario" field
//	curl -N http://127.0.0.1:7070/sweeps/job-1/stream
//	curl -s http://127.0.0.1:7070/results/<key>
//
// Admission is the battery semaphore generalized per tenant: -parallel
// bounds total cells in flight across every tenant's sweeps,
// -tenant-cells caps any one tenant below that, and when cells free up
// the scheduler hands them to the least-served starved tenant,
// breaking ties at random so no fixed tenant order can starve another.
// A tenant already holding -tenant-jobs open jobs gets 429 with a
// Retry-After estimated from the cost manifest's measured sweep
// latencies — back-pressure, never an error — and cmd/dsabench is the
// load harness that proves it (`dsabench load` reports the response
// mix and submission latency percentiles, and fails on any response
// outside 2xx/429). Per-job containment mirrors the engine's: a sweep
// that panics becomes that job's FAILED stream while every other
// tenant's jobs run on, a cancelled or abandoned stream releases its
// cells promptly, and SIGTERM drains in-flight streams for -drain
// before saving the cost manifest and exiting cleanly. CI's
// serve-smoke job (`make serve-smoke` and `make load-smoke` locally)
// byte-diffs served streams against the serial CLI, proves re-fetch by
// key regenerates nothing, and holds the 2xx/429 contract under 220
// concurrent submissions.
//
// # Benchmarking and the perf gate
//
// The hot paths under every experiment — heap alloc/free probing, TLB
// lookup/install, the pager's touch path, the replacement policies,
// and the dist protocol's framing — are benchmarked at two speeds:
//
//	make bench        # 1x smoke: every benchmark still runs (part of make ci)
//	make bench-gate   # measured: fixed -benchtime/-count, snapshot to JSON
//
// bench-gate runs the named hot-path benchmarks (BenchmarkHeapAllocFree,
// BenchmarkTLBLookup, BenchmarkPagerTouch, BenchmarkReplacementPolicies,
// BenchmarkSweep/<name> for each sweep of the battery, BenchmarkAllSweep,
// BenchmarkMachineReplay, BenchmarkDistRoundTrips, plus the allocation-shape
// benchmarks BenchmarkMetricsTable, BenchmarkCellSteadyState and
// BenchmarkWorkloadGen) and has cmd/dsabenchdiff condense the output to
// a JSON snapshot, keeping the fastest of the -count runs per benchmark
// — the noise floor that is stable enough to gate on. CI's bench-gate
// job diffs that snapshot against the cached main-branch baseline and
// fails the build when the geomean time ratio regresses by more than
// 10% — or, via -gate-allocs, when the geomean allocs/op ratio does —
// so a change that slows these paths down or re-grows their allocation
// count is blocked rather than merely reported; the baseline is
// re-saved only from main pushes whose gate passed. The BENCH_<pr>.json
// files at the repo root are local bench-gate snapshots committed per
// PR — the recorded perf trajectory. Compare any two with:
//
//	go run ./cmd/dsabenchdiff diff BENCH_6.json BENCH_7.json
//
// To find where a regression lives, every sweep-running command takes
// -cpuprofile and -memprofile (standard pprof output; the allocs
// profile is written after a final GC), and `make profile` runs the
// full dsafig sweep under both — point `go tool pprof` at the result.
//
// Cost-aware scheduling reclaims wall-clock without touching output
// bytes: a -cache-dir records each sweep's measured latency into
// latency.json (atomic rename, corrupt-safe like the workload cache);
// on the next -battery-parallel run the battery feeds sweeps
// longest-first so a long tail cannot strand the final worker, while
// results still emit in declaration order — byte-identical by
// construction, pinned by tests.
//
// Every speedup to these paths is pinned by equivalence tests, not
// just benchmarks: the indexed heap free list, the register-array TLB,
// the T8 overlap scheduler, the T1 fault-count harness and each
// rewritten replacement policy run in lockstep against
// straightforward reference implementations (the seed's originals)
// over randomized workloads, and testing.AllocsPerRun regression
// tests hold the steady-state hot paths at zero allocations — so the
// experiment tables stay byte-identical while getting faster.
package dsa

import (
	"io"

	"dsa/internal/addr"
	"dsa/internal/core"
	"dsa/internal/machine"
	"dsa/internal/sim"
	"dsa/internal/trace"
	"dsa/internal/workload"
)

// System is a runnable dynamic storage allocation system.
type System = core.System

// Config selects the four characteristics, the machine shape, and the
// strategy triple of a System.
type Config = core.Config

// Characteristics is the paper's four-way classification of a system.
type Characteristics = core.Characteristics

// Report summarizes a system run: space-time product, fault and
// fragmentation accounting, elapsed simulated time.
type Report = core.Report

// Machine is one of the paper's appendix systems, wrapped with its
// historical identity.
type Machine = machine.Machine

// Trace is a reference string: the input to System.RunLinear.
type Trace = trace.Trace

// Ref is one trace event (read, write, or advisory directive).
type Ref = trace.Ref

// Name is a name in a program's name space.
type Name = addr.Name

// Time is simulated time in ticks (core cycles of the modeled machine).
type Time = sim.Time

// NewSystem builds a system from a configuration.
func NewSystem(cfg Config) (*System, error) { return core.New(cfg) }

// Recommended returns the authors' favored configuration: a
// symbolically segmented name space, predictions accepted, artificial
// contiguity only where essential (large segments), and nonuniform
// units of allocation. largeWords sets the routing threshold; pass 0
// for the default of 1024.
func Recommended(coreWords, backingWords, largeWords int) Config {
	return core.Recommended(coreWords, backingWords, largeWords)
}

// Machines builds all seven appendix machines at the given scale
// divisor (1 = the historical capacities).
func Machines(scale int) ([]*Machine, error) { return machine.All(scale) }

// MPConfig drives the trace-level multiprogramming simulation: real
// programs on real pagers sharing one core, the processor switched to
// another program whenever one blocks on a page fetch.
type MPConfig = core.MPConfig

// MPResult reports a multiprogrammed run.
type MPResult = core.MPResult

// RunMultiprogrammed runs traces to completion under a run-until-fault
// scheduler and reports processor utilization (the paper's overlap
// argument, experiment T8b).
func RunMultiprogrammed(cfg MPConfig) (MPResult, error) {
	return core.RunMultiprogrammed(cfg)
}

// EncodeTrace writes a trace in the repository's text format.
func EncodeTrace(w io.Writer, tr Trace) error { return trace.Encode(w, tr) }

// DecodeTrace reads a trace in the repository's text format.
func DecodeTrace(r io.Reader) (Trace, error) { return trace.Decode(r) }

// Atlas builds the Ferranti ATLAS (Appendix A.1).
func Atlas(scale int) (*Machine, error) { return machine.Atlas(scale) }

// M44 builds the IBM M44/44X (Appendix A.2).
func M44(scale int) (*Machine, error) { return machine.M44(scale) }

// B5000 builds the Burroughs B5000 (Appendix A.3).
func B5000(scale int) (*Machine, error) { return machine.B5000(scale) }

// Rice builds the Rice University computer (Appendix A.4).
func Rice(scale int) (*Machine, error) { return machine.Rice(scale) }

// B8500 builds the Burroughs B8500 (Appendix A.5).
func B8500(scale int) (*Machine, error) { return machine.B8500(scale) }

// Multics builds MULTICS on the GE 645 (Appendix A.6).
func Multics(scale int) (*Machine, error) { return machine.Multics(scale) }

// M67 builds the IBM System/360 Model 67 (Appendix A.7).
func M67(scale int) (*Machine, error) { return machine.M67(scale) }

// WorkingSetTrace generates a phase-locality reference string: the
// regime in which demand paging is effective.
func WorkingSetTrace(seed, extent uint64, refs int) (Trace, error) {
	return workload.WorkingSet(sim.NewRNG(seed), workload.WorkloadWS(extent, refs))
}

// SequentialTrace scans [0, extent) in order, `passes` times.
func SequentialTrace(extent uint64, passes int) Trace {
	return workload.Sequential(extent, passes)
}

// LoopTrace cycles over `pages` pages of pageSize words — the classic
// adversary of LRU and the showcase of the ATLAS learning policy.
func LoopTrace(pages int, pageSize uint64, passes int) Trace {
	return workload.Loop(pages, pageSize, passes)
}

// WithAdvice interleaves accurate WillNeed/WontNeed directives into a
// phase-structured trace (the M44/44X predictive instructions).
func WithAdvice(tr Trace, phaseLen int, span uint64) Trace {
	return workload.WithAdvice(tr, phaseLen, span)
}

// CommonWorkload generates the machine-independent segmented workload
// used to compare the appendix machines.
func CommonWorkload(seed uint64, nsegs, refs int) machine.SegWorkload {
	return machine.CommonWorkload(seed, nsegs, refs)
}
