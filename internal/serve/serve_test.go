package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/experiments"
	"dsa/internal/metrics"
	"dsa/internal/workload/catalog"
)

// cliBytes renders experiments exactly as serial dsafig prints them —
// the reference the served stream must match byte for byte.
func cliBytes(t *testing.T, seed uint64, names ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := experiments.StreamConfig(context.Background(), experiments.Config{Seed: seed, Store: catalog.New()},
		func(tb *metrics.Table) { fmt.Fprintln(&buf, tb) }, names...)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func submit(t *testing.T, ts *httptest.Server, tenant string, body string) (int, submitResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/sweeps", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp.StatusCode, sr
}

func streamBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServedStreamByteIdenticalToCLI(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	want := cliBytes(t, 0, "t0")
	code, sr := submit(t, ts, "", `{"experiments":["t0"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	got := streamBytes(t, ts, sr.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("served stream differs from CLI output:\nserved:\n%s\ncli:\n%s", got, want)
	}

	// Fetch-by-key serves the same bytes without touching the battery.
	resp, err := ts.Client().Get(ts.URL + "/results/" + sr.Key)
	if err != nil {
		t.Fatal(err)
	}
	byKey, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(byKey, want) {
		t.Fatal("fetch-by-key bytes differ from stream bytes")
	}
}

func TestResubmitServesCacheWithoutRerunning(t *testing.T) {
	var runs atomic.Int32
	s := New(Options{Runner: func(ctx context.Context, run Run, emit func([]byte)) error {
		runs.Add(1)
		emit([]byte("table bytes\n"))
		return nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, first := submit(t, ts, "", `{"experiments":["t0"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	if got := streamBytes(t, ts, first.ID); string(got) != "table bytes\n" {
		t.Fatalf("first stream: %q", got)
	}
	code, second := submit(t, ts, "", `{"experiments":["t0"]}`)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("resubmit: code %d cached %v, want 200 cached", code, second.Cached)
	}
	if second.Key != first.Key {
		t.Fatalf("identical submissions got different keys: %s vs %s", first.Key, second.Key)
	}
	if got := streamBytes(t, ts, second.ID); string(got) != "table bytes\n" {
		t.Fatalf("cached stream: %q", got)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("runner ran %d times, want 1 (second submission must come from cache)", n)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, _ := submit(t, ts, "", `{"experiments":["no-such-sweep"]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown experiment: %d, want 400", code)
	}
	if code, _ := submit(t, ts, "", `{}`); code != http.StatusBadRequest {
		t.Fatalf("empty submission: %d, want 400", code)
	}
	if code, _ := submit(t, ts, "", `{"scenario":"kind = \"placement\"\n"}`); code != http.StatusBadRequest {
		t.Fatalf("broken scenario: %d, want 400", code)
	}
}

func TestBudgetExhaustionReturns429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := New(Options{TenantJobs: 1, Runner: func(ctx context.Context, run Run, emit func([]byte)) error {
		started <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}})
	defer s.Close()
	defer close(release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, _ := submit(t, ts, "alice", `{"experiments":["t0"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	<-started

	// alice is at her open-job limit: back-pressure, with advice.
	req, _ := http.NewRequest("POST", ts.URL+"/sweeps", strings.NewReader(`{"experiments":["t0"]}`))
	req.Header.Set("X-Tenant", "alice")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carried no Retry-After")
	}

	// A different tenant is unaffected by alice's exhaustion.
	if code, _ := submit(t, ts, "bob", `{"experiments":["t0"]}`); code != http.StatusAccepted {
		t.Fatalf("bob's submit during alice's exhaustion: %d", code)
	}
}

func TestCancelledStreamFreesCellsPromptly(t *testing.T) {
	s := New(Options{Cells: 2, Runner: func(ctx context.Context, run Run, emit func([]byte)) error {
		// Occupy real budget cells that only free on cancellation, the
		// shape of a sweep mid-flight when its watcher walks away.
		jobs := []engine.Job{
			{Key: "a", Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}},
			{Key: "b", Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}},
		}
		run.Executor.Execute(ctx, engine.SweepEnv{Catalog: catalog.New()}, jobs, func(engine.Result) {})
		return ctx.Err()
	}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, sr := submit(t, ts, "alice", `{"experiments":["t0"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Wait until the job holds its cells, then abandon the stream.
	deadline := time.Now().Add(5 * time.Second)
	for s.budget.Running("alice") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("job never acquired its cells (running=%d)", s.budget.Running("alice"))
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/sweeps/"+sr.ID+"/stream", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // detach the only watcher mid-run
	resp.Body.Close()

	for s.budget.Running("alice") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled stream did not free its cells (running=%d)", s.budget.Running("alice"))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanickingSweepContainedConcurrentTenantUnaffected(t *testing.T) {
	s := New(Options{Runner: nil})
	// Wrap the default runner: mallory's sweeps die, everyone else runs
	// the real battery.
	def := s.runner
	s.runner = func(ctx context.Context, run Run, emit func([]byte)) error {
		if run.Tenant == "mallory" {
			panic("poisoned sweep")
		}
		return def(ctx, run, emit)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	codeM, srM := submit(t, ts, "mallory", `{"experiments":["t1"]}`)
	codeA, srA := submit(t, ts, "alice", `{"experiments":["t0"]}`)
	if codeM != http.StatusAccepted || codeA != http.StatusAccepted {
		t.Fatalf("submits: %d, %d", codeM, codeA)
	}

	gotM := streamBytes(t, ts, srM.ID)
	if !bytes.Contains(gotM, []byte("FAILED")) || !bytes.Contains(gotM, []byte("poisoned sweep")) {
		t.Fatalf("panicking sweep's stream carries no failure marker: %q", gotM)
	}
	var st statusResponse
	resp, err := ts.Client().Get(ts.URL + "/sweeps/" + srM.ID)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != "failed" {
		t.Fatalf("panicked job state %q, want failed", st.State)
	}

	if got, want := streamBytes(t, ts, srA.ID), cliBytes(t, 0, "t0"); !bytes.Equal(got, want) {
		t.Fatalf("concurrent tenant's bytes changed under mallory's panic:\n%s", got)
	}

	// The failed job must not poison the result cache.
	resp, err = ts.Client().Get(ts.URL + "/results/" + srM.Key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("failed job's key serves a result: %d", resp.StatusCode)
	}
}

func TestBudgetPerTenantCapAndFairHandoff(t *testing.T) {
	b := battery.NewBudget(4, 2)
	ctx := context.Background()

	// alice takes her full per-tenant share...
	for i := 0; i < 2; i++ {
		if err := b.Acquire(ctx, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	// ...and queues for more, beyond her cap.
	granted := make(chan string, 8)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Acquire(ctx, "alice"); err == nil {
				granted <- "alice"
			}
		}()
	}
	// Free slots exist, but alice is capped; bob walks straight in.
	done := make(chan error, 1)
	go func() { done <- b.Acquire(ctx, "bob") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bob blocked behind a capped tenant despite free slots")
	}
	if b.Running("bob") != 1 {
		t.Fatalf("bob running %d, want 1", b.Running("bob"))
	}
	select {
	case who := <-granted:
		t.Fatalf("%s acquired beyond the per-tenant cap", who)
	default:
	}

	// Releasing alice's slots hands them to her FIFO waiters.
	b.Release("alice")
	b.Release("alice")
	deadline := time.Now().Add(5 * time.Second)
	for b.Running("alice") != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("released slots never reached alice's waiters (running=%d)", b.Running("alice"))
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	// Cancellation removes a waiter without leaking a slot.
	cctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.Acquire(cctx, "alice") }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled acquire: %v", err)
	}
	b.Release("alice")
	b.Release("alice")
	b.Release("bob")
	if got := b.Total(); got != 4 {
		t.Fatalf("slots leaked: total %d, want 4", got)
	}
}

// TestServeLoadNoGoroutineLeak is the load smoke's in-process half:
// a burst of concurrent submissions against a small cell budget must
// produce only 2xx/429 responses, and shutting the server down must
// return the process to its baseline goroutine count — the goleak
// posture without the dependency.
func TestServeLoadNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Options{Cells: 2, TenantJobs: 2})
	ts := httptest.NewServer(s)

	const n = 200
	var wg sync.WaitGroup
	var bad atomic.Int32
	codes := make([]atomic.Int32, 600)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"experiments":["t0"],"seed":%d}`, i%8)
			req, _ := http.NewRequest("POST", ts.URL+"/sweeps", strings.NewReader(body))
			req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", i%5))
			resp, err := ts.Client().Do(req)
			if err != nil {
				bad.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[resp.StatusCode].Add(1)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted &&
				resp.StatusCode != http.StatusTooManyRequests {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d responses outside 2xx/429 under load", bad.Load())
	}
	if accepted := codes[http.StatusOK].Load() + codes[http.StatusAccepted].Load(); accepted == 0 {
		t.Fatal("load run accepted nothing")
	}

	// Clean drain: jobs cancelled, goroutines joined, listeners closed.
	s.Close()
	ts.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after shutdown: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
