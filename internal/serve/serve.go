// Package serve is the multi-tenant sweep service behind `dsasim
// serve`: one long-running daemon owning one battery-wide cell budget,
// one workload store and one cost manifest, accepting sweep
// submissions over HTTP and streaming each job's tables back
// byte-identical to the serial CLI.
//
// The layering mirrors the rest of the repo one level up: the engine
// bounds cells within a sweep, the battery bounds sweeps within a
// battery, and serve bounds tenants within a daemon — a two-level
// budget (battery.Budget: battery-wide total, per-tenant cap) with
// randomized fair hand-off between starved tenants, 429 back-pressure
// fed by the cost manifest, and per-job panic/cancellation containment
// so one tenant's poisoned sweep never wedges anyone else's bytes.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/experiments"
	"dsa/internal/metrics"
	"dsa/internal/scenario"
	"dsa/internal/workload/catalog"
)

// DefaultTenant is the tenant jobs run under when a request carries no
// X-Tenant header.
const DefaultTenant = "default"

// Run is one admitted sweep job as the runner sees it: the resolved
// experiment names (scenario uploads already registered and
// canonicalized to wire ids), the base seed, the owning tenant, and
// the tenant-budgeted executor its cells must run under.
type Run struct {
	Names    []string
	Seed     uint64
	Tenant   string
	Executor engine.Executor
}

// Runner executes one job, emitting output chunks as they become
// available. The default runner streams the experiments battery
// (tables rendered exactly as the CLI prints them); tests inject
// runners that emit canned bytes, panic, or block on ctx.
type Runner func(ctx context.Context, run Run, emit func(chunk []byte)) error

// Options configures a Server.
type Options struct {
	// Store is the daemon-lifetime workload store every job's sweeps
	// child into (nil: a fresh in-memory store).
	Store *catalog.Catalog
	// Costs is the daemon-lifetime sweep-cost manifest: jobs record
	// observed sweep times into it, and admission uses it to estimate
	// Retry-After for rejected submissions. May be nil.
	Costs *battery.CostManifest
	// Cells bounds concurrently running cells battery-wide across all
	// tenants (<= 0 means GOMAXPROCS).
	Cells int
	// TenantCells caps one tenant's concurrently running cells
	// (<= 0: no cap below Cells).
	TenantCells int
	// TenantJobs caps one tenant's open (not yet finished) jobs; a
	// submission beyond it is rejected with 429 + Retry-After.
	// <= 0 means 4.
	TenantJobs int
	// Runner replaces the default experiments-battery runner (tests).
	Runner Runner
	// Log, if non-nil, receives daemon diagnostics.
	Log func(format string, args ...interface{})
}

// Server is the sweep service: an http.Handler owning the job table,
// the result cache and the admission budget. Close cancels every
// running job and waits for their goroutines, so a drained server
// leaks nothing.
type Server struct {
	store   *catalog.Catalog
	costs   *battery.CostManifest
	budget  *battery.Budget
	runner  Runner
	log     func(format string, args ...interface{})
	maxOpen int

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job ids in submission order, for /sweeps listing
	open    map[string]int
	results map[string][]byte
	seq     int

	submitted, completed, failed, cachedHits, rejected int

	mux *http.ServeMux
}

// job is one submitted sweep battery: an append-only output buffer,
// watcher accounting for cancel-on-abandon, and a terminal state.
type job struct {
	id     string
	key    string
	tenant string
	names  []string
	seed   uint64
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	buf      []byte
	done     bool
	err      error
	updated  chan struct{}
	watchers int
}

// New builds a Server. The caller owns serving it (httptest, or the
// dsasim serve command's http.Server) and must Close it on the way
// out.
func New(o Options) *Server {
	s := &Server{
		store:   o.Store,
		costs:   o.Costs,
		budget:  battery.NewBudget(o.Cells, o.TenantCells),
		runner:  o.Runner,
		log:     o.Log,
		maxOpen: o.TenantJobs,
		jobs:    make(map[string]*job),
		open:    make(map[string]int),
		results: make(map[string][]byte),
		mux:     http.NewServeMux(),
	}
	if s.store == nil {
		s.store = catalog.New()
	}
	if s.runner == nil {
		s.runner = s.batteryRunner
	}
	if s.log == nil {
		s.log = func(string, ...interface{}) {}
	}
	if s.maxOpen <= 0 {
		s.maxOpen = 4
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /sweeps", s.handleList)
	s.mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /sweeps/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /sweeps/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close cancels every job and waits for all job goroutines to exit.
// In-flight stream responses end when their jobs finish cancelling.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// batteryRunner is the default Runner: the experiments battery under
// this job's explicit config — the daemon's store and cost manifest,
// the job's seed, the tenant-budgeted executor — emitting each table
// exactly as the CLI prints it (Table.String plus the Println
// newline), so a served stream is byte-identical to serial dsafig.
func (s *Server) batteryRunner(ctx context.Context, run Run, emit func([]byte)) error {
	return experiments.StreamConfig(ctx, experiments.Config{
		Seed:     run.Seed,
		Store:    s.store,
		Executor: run.Executor,
		Costs:    s.costs,
	}, func(t *metrics.Table) {
		emit([]byte(t.String() + "\n"))
	}, run.Names...)
}

// submitRequest is the POST /sweeps body: named experiments, an
// optional inline scenario file (the declarative-sweep compiler as API
// payload), and the base seed.
type submitRequest struct {
	Experiments  []string `json:"experiments,omitempty"`
	Scenario     string   `json:"scenario,omitempty"`
	ScenarioFile string   `json:"scenario_file,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
}

type submitResponse struct {
	ID          string   `json:"id"`
	Key         string   `json:"key"`
	Cached      bool     `json:"cached"`
	Experiments []string `json:"experiments"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	tenant := tenantOf(r)
	names := make([]string, 0, len(req.Experiments)+1)
	for _, n := range req.Experiments {
		resolved, err := experiments.Resolve(n)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		names = append(names, resolved)
	}
	if req.Scenario != "" {
		file := req.ScenarioFile
		if file == "" {
			file = "upload.toml"
		}
		sc, err := scenario.Parse(req.Scenario, file)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Registration is idempotent and hash-keyed: re-uploading the
		// same source is a no-op, and the id a CLI run of the same file
		// would use is the id the upload gets — one cache entry, not two.
		names = append(names, experiments.RegisterScenario(sc))
	}
	if len(names) == 0 {
		httpError(w, http.StatusBadRequest, "submission names no experiments (experiments and/or scenario required)")
		return
	}
	key := resultKey(names, req.Scenario, req.Seed)

	s.mu.Lock()
	if cached, ok := s.results[key]; ok {
		// Identical {experiments, scenario, seed} already completed:
		// serve the recorded bytes as an instantly-done job. No
		// admission charge — nothing will run.
		j := s.newJobLocked(key, tenant, names, req.Seed)
		j.buf = cached
		j.done = true
		s.cachedHits++
		s.submitted++
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, submitResponse{ID: j.id, Key: key, Cached: true, Experiments: names})
		return
	}
	if s.open[tenant] >= s.maxOpen {
		retry := s.retryAfterLocked(tenant)
		s.rejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		httpError(w, http.StatusTooManyRequests, "tenant %q has %d open jobs (limit %d); retry after %ds", tenant, s.maxOpen, s.maxOpen, retry)
		return
	}
	j := s.newJobLocked(key, tenant, names, req.Seed)
	s.open[tenant]++
	s.submitted++
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runJob(j)
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.id, Key: key, Cached: false, Experiments: names})
}

// newJobLocked allocates and registers a job; s.mu must be held.
func (s *Server) newJobLocked(key, tenant string, names []string, seed uint64) *job {
	s.seq++
	jctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:      fmt.Sprintf("job-%d", s.seq),
		key:     key,
		tenant:  tenant,
		names:   names,
		seed:    seed,
		ctx:     jctx,
		cancel:  cancel,
		updated: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}

// runJob executes one job with panic containment: a runner that dies
// becomes a failed job with the panic in its terminal line, and the
// daemon (and every other tenant's stream) carries on.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("sweep panicked: %v", p)
			}
		}()
		return s.runner(j.ctx, Run{
			Names:    j.names,
			Seed:     j.seed,
			Tenant:   j.tenant,
			Executor: s.budget.Executor(j.tenant),
		}, j.append)
	}()
	s.finish(j, err)
}

// finish marks a job terminal, caches successful output under its
// content key, and releases the tenant's admission slot. A failed job
// appends one terminal diagnostic line, so a watcher sees why the
// stream ended early; successful output stays byte-identical to the
// CLI.
func (s *Server) finish(j *job, err error) {
	j.mu.Lock()
	if err != nil {
		j.err = err
		j.buf = append(j.buf, []byte("serve: sweep FAILED: "+err.Error()+"\n")...)
	}
	j.done = true
	close(j.updated)
	buf := j.buf
	j.mu.Unlock()

	s.mu.Lock()
	if s.open[j.tenant] <= 1 {
		delete(s.open, j.tenant)
	} else {
		s.open[j.tenant]--
	}
	if err == nil {
		s.results[j.key] = buf
		s.completed++
	} else {
		s.failed++
	}
	s.mu.Unlock()
	if err != nil {
		s.log("job %s (%s): %v", j.id, j.tenant, err)
	}
}

// append adds a chunk to the job's output and wakes every watcher.
func (j *job) append(chunk []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return
	}
	j.buf = append(j.buf, chunk...)
	close(j.updated)
	j.updated = make(chan struct{})
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Sweep-Key", j.key)
	flusher, _ := w.(http.Flusher)
	// Commit the response now: a watcher of a job with no output yet
	// must still see headers (and chunked framing) before the first
	// table lands, or clients block on a response that never starts.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
	defer s.detach(j)

	off := 0
	for {
		j.mu.Lock()
		chunk := j.buf[off:]
		done := j.done
		upd := j.updated
		j.mu.Unlock()
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			off += len(chunk)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if done {
			return
		}
		select {
		case <-upd:
		case <-r.Context().Done():
			return
		}
	}
}

// detach drops one watcher. A job abandoned mid-run — its last watcher
// gone before completion — is cancelled so its cells free their budget
// slots promptly; a job nobody has watched yet keeps running (the
// normal POST→GET gap must not kill it).
func (s *Server) detach(j *job) {
	j.mu.Lock()
	j.watchers--
	abandoned := j.watchers == 0 && !j.done
	j.mu.Unlock()
	if abandoned {
		j.cancel()
	}
}

type statusResponse struct {
	ID          string   `json:"id"`
	Key         string   `json:"key"`
	Tenant      string   `json:"tenant"`
	State       string   `json:"state"`
	Experiments []string `json:"experiments"`
	Seed        uint64   `json:"seed"`
	Bytes       int      `json:"bytes"`
	Error       string   `json:"error,omitempty"`
}

func (j *job) status() statusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := statusResponse{
		ID:          j.id,
		Key:         j.key,
		Tenant:      j.tenant,
		State:       "running",
		Experiments: j.names,
		Seed:        j.seed,
		Bytes:       len(j.buf),
	}
	if j.done {
		st.State = "done"
		if j.err != nil {
			st.State = "failed"
			st.Error = j.err.Error()
			if j.err == context.Canceled {
				st.State = "cancelled"
			}
		}
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]statusResponse, 0, len(s.order))
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	b, ok := s.results[r.PathValue("key")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no result under that key")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(b)
}

// statsResponse is the daemon's observable state: job counters plus
// the store's traffic — the serve-smoke diffs it before and after a
// fetch-by-key to prove the fetch regenerated nothing.
type statsResponse struct {
	Submitted  int      `json:"submitted"`
	Completed  int      `json:"completed"`
	Failed     int      `json:"failed"`
	CachedHits int      `json:"cached_hits"`
	Rejected   int      `json:"rejected"`
	Results    int      `json:"results"`
	Store      string   `json:"store"`
	Tenants    []string `json:"tenants,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := statsResponse{
		Submitted:  s.submitted,
		Completed:  s.completed,
		Failed:     s.failed,
		CachedHits: s.cachedHits,
		Rejected:   s.rejected,
		Results:    len(s.results),
	}
	for t := range s.open {
		st.Tenants = append(st.Tenants, t)
	}
	s.mu.Unlock()
	sort.Strings(st.Tenants)
	st.Store = s.store.Stats().Summary()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// retryAfterLocked estimates how long a rejected tenant should wait:
// the recorded cost of its open jobs' sweeps from the daemon's
// manifest, clamped to [1s, 60s]; unknown sweeps count a second each.
// Advisory throughout — the manifest is a measurement, not a promise.
func (s *Server) retryAfterLocked(tenant string) int {
	var total time.Duration
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil || j.tenant != tenant {
			continue
		}
		j.mu.Lock()
		done := j.done
		j.mu.Unlock()
		if done {
			continue
		}
		for _, name := range j.names {
			if d, ok := s.costs.Cost(name); ok {
				total += d
			} else {
				total += time.Second
			}
		}
	}
	secs := int((total + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// resultKey is the content address of a submission's output: identical
// {experiments, scenario source, seed} means identical bytes (the
// repo's standing determinism gate), so one hash names the result
// forever.
func resultKey(names []string, scenarioSrc string, seed uint64) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(struct {
		Names    []string `json:"names"`
		Scenario string   `json:"scenario"`
		Seed     uint64   `json:"seed"`
	}{names, scenarioSrc, seed})
	return hex.EncodeToString(h.Sum(nil))
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return DefaultTenant
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
