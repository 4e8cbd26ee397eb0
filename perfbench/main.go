// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds and prints, as
// its last line, a JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1). Every figure is host time or
// host memory; simulated statistics are checked for exact repetition
// instead. See README.md for the workloads and the metric map.
//
// Usage, from the repository root (run.sh builds the binaries into
// .bench_build/bin first):
//
//	perfbench --workload battery|machines|serve|battery-dist \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dsa/internal/experiments"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	bin      string // where run.sh put the built dsafig and dsasim
	scratch  string // caches and span files
	nproc    int
}

// runSlack is how long set-up and the checks after the timed phase may
// take on top of --seconds.
const runSlack = 100 * time.Second

// setupRounds is how many times each workload sets up; setup_s is the
// median, so one or two slow starts do not move it.
const setupRounds = 5

// metricDef names a reported metric. The lists below are the ones
// BENCHMARK.json declares; main_test.go keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user sees, measured on every workload; an
// "op" is a full battery (battery, battery-dist), one round of the
// seven machines on both trace kinds (machines), or one served request
// from its due time to the last byte of its result (serve).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// machineKeys are the seven appendix machines in appendix order, as
// they appear in per-layer metric names.
var machineKeys = []string{"atlas", "m44", "b5000", "rice", "b8500", "multics", "m67"}

// traceKinds are the two replay kinds of the machines workload.
var traceKinds = []string{"workingset", "segments"}

// spanNames are the span boundaries the traced run records.
var spanNames = []string{"battery", "sweep", "cell", "render", "round", "build", "replay", "request", "submit", "first_byte", "stream", "fetch"}

// perLayer are the metrics of single layers, reported by --trace 1.
// A workload that bypasses a layer reports 0 for it.
func perLayer() []metricDef {
	defs := []metricDef{
		{"error_rate", "ratio", "lower"},
		{"alloc_mb", "MB", "lower"},
		{"sim_refs_per_s", "1/s", "higher"},
		{"trace.overhead_ms", "ms", "lower"},
		{"op.tail_ms", "ms", "lower"},
		{"engine.cells", "count", "higher"},
		{"engine.cells_failed", "count", "lower"},
		{"engine.cell_busy_s", "s", "lower"},
		{"engine.cell_wait_p50_ms", "ms", "lower"},
		{"engine.cell_wait_max_ms", "ms", "lower"},
		{"battery.slot_util", "ratio", "higher"},
		{"battery.tail_s", "s", "lower"},
	}
	for _, name := range experiments.Names() {
		defs = append(defs,
			metricDef{"sweep." + name + ".busy_s", "s", "lower"},
			metricDef{"sweep." + name + ".max_cell_s", "s", "lower"})
	}
	defs = append(defs,
		metricDef{"catalog.generated", "count", "lower"},
		metricDef{"catalog.hits", "count", "higher"},
		metricDef{"catalog.disk_hits", "count", "higher"},
		metricDef{"catalog.hit_ratio", "ratio", "higher"},
		metricDef{"metrics.render_s", "s", "lower"},
		metricDef{"workload.gen_s.workingset", "s", "lower"},
		metricDef{"workload.gen_s.segments", "s", "lower"},
		metricDef{"machine.build_s", "s", "lower"},
		metricDef{"machine.build_mb", "MB", "lower"},
	)
	for _, m := range machineKeys {
		for _, k := range traceKinds {
			defs = append(defs, metricDef{"machine." + m + "." + k + ".ns_per_ref", "ns", "lower"})
		}
	}
	defs = append(defs,
		metricDef{"core.page_faults", "count", "lower"},
		metricDef{"core.segment_faults", "count", "lower"},
		metricDef{"serve.submit_ms", "ms", "lower"},
		metricDef{"serve.first_byte_ms", "ms", "lower"},
		metricDef{"serve.fetch_ms", "ms", "lower"},
		metricDef{"serve.stream_ms", "ms", "lower"},
		metricDef{"serve.refused", "count", "lower"},
		metricDef{"serve.cached_share", "ratio", "higher"},
		metricDef{"serve.generator_lag_ms", "ms", "lower"},
		metricDef{"serve.submitted", "count", "higher"},
		metricDef{"serve.completed", "count", "higher"},
		metricDef{"serve.failed", "count", "lower"},
		metricDef{"serve.cached_hits", "count", "higher"},
		metricDef{"serve.rejected", "count", "lower"},
		metricDef{"dist.remote_cells", "count", "higher"},
		metricDef{"dist.local_cells", "count", "lower"},
		metricDef{"dist.crashes", "count", "lower"},
		metricDef{"dist.steals", "count", "higher"},
	)
	for _, s := range spanNames {
		defs = append(defs, metricDef{"self_s." + s, "s", "lower"})
	}
	defs = append(defs,
		metricDef{"op.raw_p50_ms", "ms", "lower"},
		metricDef{"host.ref_cpu_ms", "ms", "lower"},
		metricDef{"host.steal_share", "ratio", "lower"},
	)
	return defs
}

// result is what a workload hands back: its operation counts, the
// failures found, and every metric it measured.
type result struct {
	attempted int
	failures  map[string]string // failed operation -> first reason
	values    map[string]float64
	lines     []string // report lines printed above the JSON
}

func newResult() *result {
	return &result{failures: map[string]string{}, values: map[string]float64{}}
}

// fail marks operation op failed; an operation fails once however many
// of its checks fail.
func (r *result) fail(op, format string, args ...interface{}) {
	if _, ok := r.failures[op]; !ok {
		r.failures[op] = fmt.Sprintf(format, args...)
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// show adds a report line giving a figure its workload-specific name
// (battery_s, served_p50_ms, ...).
func (r *result) show(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("%-16s %12.6g %s", name, v, unit))
}

func (r *result) note(format string, args ...interface{}) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report lines, then the result line.
func (r *result) print(c config) {
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s %s/%s workload=%s seed=%d seconds=%g trace=%t serve_rate=%g/s\n",
		c.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		c.workload, c.seed, c.seconds.Seconds(), c.traced, serveRate)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	keys := make([]string, 0, len(r.failures))
	for k := range r.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %s\n", k, r.failures[k])
	}
	errRate := float64(len(r.failures)) / float64(max(r.attempted, 1))
	fmt.Printf("%-16s %12.6g ratio (%d of %d operations)\n", "error_rate", errRate, len(r.failures), r.attempted)
	r.set("error_rate", errRate)

	defs := endToEnd
	if c.traced {
		defs = perLayer()
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.failures) == 0, max(r.attempted, 1), len(r.failures), map[string]jsonMetric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{r.values[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func main() {
	var c config
	var seconds float64
	var trace int
	flag.StringVar(&c.workload, "workload", "", "battery, machines, serve or battery-dist")
	flag.Uint64Var(&c.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&seconds, "seconds", 10, "how long the timed phase runs")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	c.seconds = time.Duration(seconds * float64(time.Second))
	c.traced = trace != 0
	c.nproc = runtime.NumCPU()
	c.bin = filepath.Join(".bench_build", "bin")
	c.scratch = filepath.Join(".bench_build", "run")

	run := map[string]func(context.Context, config) (*result, error){
		"battery":      runBattery,
		"machines":     runMachines,
		"serve":        runServe,
		"battery-dist": runBatteryDist,
	}[c.workload]
	if run == nil || c.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload battery|machines|serve|battery-dist and --seconds > 0 (got %q, %v)\n", c.workload, seconds)
		os.Exit(2)
	}
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Past this deadline in-flight operations are cancelled and count
	// as failed, so a wedged program cannot hold the run for ever.
	ctx, cancel := context.WithTimeout(context.Background(), c.seconds+runSlack)
	defer cancel()
	r, err := run(ctx, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print(c)
}

// spanFile is where a traced run writes its spans.
func spanFile(c config) string {
	return filepath.Join(c.scratch, fmt.Sprintf("spans-%s-%d.jsonl", strings.ReplaceAll(c.workload, "/", "_"), c.seed))
}

// opStats adds the figures every workload shares: the op latency median
// and tail, CPU per op and set-up time, each corrected for stolen time
// and scaled to nominal host speed (see hostref.go), and returns the
// corrected op median and CPU per op. The tail is a per-layer metric:
// on the serve workload it moves by a quarter from run to run, more
// than any bound a gate could hold it to.
func opStats(r *result, ops []hostTime, cpuMS []float64, setups []hostTime, h *hostRef) (p50MS, cpuPerOpMS float64) {
	f := h.factor()
	var op, raw, avail, setup, rawSetup []float64
	for _, t := range ops {
		op = append(op, t.unstolen()*f)
		raw = append(raw, t.ms)
		avail = append(avail, t.avail)
	}
	for _, t := range setups {
		setup = append(setup, t.unstolen()*f/1000)
		rawSetup = append(rawSetup, t.ms/1000)
	}
	pct, beyond := tailPercentile(len(op))
	p50MS, cpuPerOpMS = median(op), median(cpuMS)*f
	r.set("op_p50_ms", p50MS)
	r.set("op.tail_ms", quantile(op, pct/100))
	r.set("cpu_ms_per_op", cpuPerOpMS)
	r.set("setup_s", median(setup))
	r.set("op.raw_p50_ms", median(raw))
	r.set("host.ref_cpu_ms", h.refMS())
	r.set("host.steal_share", 1-median(avail))
	r.show("op_p50_ms", p50MS, "ms")
	r.show("op_tail_ms", quantile(op, pct/100), fmt.Sprintf("ms (p%g of %d ops, %d beyond)", pct, len(op), beyond))
	r.show("cpu_ms_per_op", cpuPerOpMS, "ms")
	r.show("setup_s", median(setup), "s")
	r.note("host: reference kernel %.4g ms CPU per lane (median of %d, nominal %v), %.3g%% of CPU time stolen (median op); uncorrected: op_p50 %.6g ms, cpu/op %.6g ms, setup %.6g s",
		h.refMS(), len(h.samples), refNominalCPU, 100*(1-median(avail)), median(raw), median(cpuMS), median(rawSetup))
	return p50MS, cpuPerOpMS
}

// traceOverhead reports traced minus untraced median op time, for a
// traced run whose ops alternate between the two.
func traceOverhead(r *result, tracedMS, plainMS []float64) {
	if len(tracedMS) == 0 || len(plainMS) == 0 {
		return
	}
	r.set("trace.overhead_ms", median(tracedMS)-median(plainMS))
	r.note("tracing overhead %.4g ms per op (traced %.4g, untraced %.4g)",
		median(tracedMS)-median(plainMS), median(tracedMS), median(plainMS))
}

// spanLayers writes the spans out and adds each span name's median
// self time per op.
func spanLayers(r *result, c config, t *tracer) {
	if err := t.write(spanFile(c)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	for name, v := range selfByName(t.snapshot()) {
		r.set("self_s."+name, v)
	}
}
