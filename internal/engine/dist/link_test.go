//go:build unix

package dist

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dsa/internal/engine"
)

func init() {
	Handle("test/stop", func(ctx context.Context, c Call) (interface{}, error) {
		// A worker that stops mid-cell: alive, link open, silent. The
		// stop can land after kill returns, so the cell never answers.
		_ = syscall.Kill(os.Getpid(), syscall.SIGSTOP)
		select {}
	})
	Handle("test/stdout", func(ctx context.Context, c Call) (interface{}, error) {
		fmt.Printf("chatter from %s\n", c.Key)
		return c.Key, nil
	})
}

// newLocalPool is newRemotePool for local children of this test binary
// in worker mode.
func newLocalPool(t *testing.T, o Options) *Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	o.Command, o.Env = exe, append(os.Environ(), workerEnv+"=1")
	return newRemotePool(t, o)
}

// TestLocalStoppedChildRetired: a local child that stops — no EOF, no
// heartbeats — is retired at the pool's LinkTimeout like a stalled
// remote link: its batch is contained as FAILED rows, the retirement
// is explained on stderr, and the slot respawns for the rest of the
// sweep.
func TestLocalStoppedChildRetired(t *testing.T) {
	const timeout = 2 * time.Second
	jobs := rowJobs(6)
	jobs[2] = engine.Job{Key: "cell-02", Spec: &engine.Spec{Task: "test/stop"}}
	var buf syncBuffer
	pool := newLocalPool(t, Options{Workers: 1, LinkTimeout: timeout, Stderr: &buf})
	start := time.Now()
	results := engine.New(engine.Options{Seed: 1, Executor: pool}).Run(context.Background(), jobs)
	if elapsed := time.Since(start); elapsed > 2*timeout {
		t.Errorf("sweep took %v; the stopped child was not retired at LinkTimeout %v", elapsed, timeout)
	}
	for _, r := range results {
		if r.Key == "cell-02" {
			if !r.Panicked || !strings.Contains(r.Err.Error(), "silent past deadline") {
				t.Errorf("stopped cell = %+v, want a contained link-silence failure", r)
			}
		} else if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Key, r.Err)
		}
	}
	st := pool.Stats()
	if st.Crashes != 1 || st.Respawns < 1 || st.Remote != 5 {
		t.Errorf("stats = %+v, want 1 crash, a respawn and 5 remote cells", st)
	}
	if out := buf.String(); !strings.Contains(out, "dist: worker[0]: link retired: ") ||
		!strings.Contains(out, "(batch cell-02 contained)") {
		t.Errorf("stderr does not explain the retirement; got:\n%s", out)
	}
}

// TestLocalStdoutIsOutput: a cell that prints to stdout returns its
// value normally; the line reaches the pool's stderr with the slot and
// cell prefix instead of landing in the frame stream.
func TestLocalStdoutIsOutput(t *testing.T) {
	var buf syncBuffer
	pool := newLocalPool(t, Options{Workers: 1, Stderr: &buf})
	jobs := []engine.Job{{Key: "chatty/cell", Spec: &engine.Spec{Task: "test/stdout"}}}
	for _, r := range engine.New(engine.Options{Executor: pool}).Run(context.Background(), jobs) {
		if r.Err != nil || r.Value != "chatty/cell" {
			t.Errorf("%s = %+v, want its key back", r.Key, r)
		}
	}
	if st := pool.Stats(); st.Crashes != 0 || st.Remote != 1 {
		t.Errorf("stats = %+v, want 1 remote cell and no crash", st)
	}
	pool.Close() // drain the child's output copier
	if want := "worker[0] chatty/cell: chatter from chatty/cell\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("stderr missing %q; got:\n%s", want, buf.String())
	}
}

// TestLocalCrashContainedPromptly: four children spawn concurrently
// and one dies at once; its crash must be seen as EOF, far inside the
// default LinkTimeout. A pipe end leaked into a sibling child would
// hold the link open and turn the EOF into a timeout.
func TestLocalCrashContainedPromptly(t *testing.T) {
	jobs := rowJobs(8)
	jobs[1] = engine.Job{Key: "cell-01", Spec: &engine.Spec{Task: "test/crash"}}
	pool := newLocalPool(t, Options{Workers: 4})
	var (
		mu        sync.Mutex
		contained time.Duration
	)
	start := time.Now()
	pool.Execute(context.Background(), engine.SweepEnv{Seed: 1}, jobs, func(r engine.Result) {
		mu.Lock()
		defer mu.Unlock()
		if r.Key == "cell-01" {
			contained = time.Since(start)
			if !r.Panicked {
				t.Errorf("crashed cell = %+v, want contained crash", r)
			}
		} else if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Key, r.Err)
		}
	})
	if contained == 0 || contained > 2*time.Second {
		t.Errorf("crash contained after %v, want well under DefaultLinkTimeout %v", contained, DefaultLinkTimeout)
	}
	if st := pool.Stats(); st.Crashes != 1 || st.Remote != 7 {
		t.Errorf("stats = %+v, want 1 crash and 7 remote cells", st)
	}
}
