package experiments

import (
	"strings"
	"testing"

	"dsa/internal/scenario"
)

// loadT2Mirror compiles the shipped example scenario that mirrors the
// compiled-in T2 sweep — the same file `make scenario-smoke` runs.
func loadT2Mirror(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Load("../../examples/scenarios/t2-mirror.toml")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScenarioRoundTrip is the tentpole acceptance test: the shipped
// t2-mirror scenario, parsed and compiled at runtime, renders
// byte-identically to the compiled-in T2 sweep — serially, with cell
// parallelism, and across a two-process worker pool (whose workers
// compile the scenario from the source shipped in the cell specs).
func TestScenarioRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process round trip")
	}
	s := loadT2Mirror(t)
	id := RegisterScenario(s)
	if again := RegisterScenario(s); again != id {
		t.Fatalf("re-registration changed id: %q vs %q", again, id)
	}

	want := renderNamed(t, Config{}, "t2")
	if got := renderNamed(t, Config{}, id); got != want {
		t.Fatalf("serial scenario differs from t2:\n%s", firstDiff(want, got))
	}
	if got := renderNamed(t, Config{}, "t2-mirror"); got != want {
		t.Fatalf("bare-name scenario differs from t2:\n%s", firstDiff(want, got))
	}
	if got := renderNamed(t, Config{Parallel: 4}, id); got != want {
		t.Fatalf("parallel scenario differs from t2:\n%s", firstDiff(want, got))
	}
	if got := renderNamed(t, Config{Executor: newWorkerPool(t, 2)}, id); got != want {
		t.Fatalf("distributed scenario differs from t2:\n%s", firstDiff(want, got))
	}
}

// TestScenarioSeedTravels: under a non-zero base seed the scenario
// still renders identically in-process and across workers — the base
// seed crosses the wire and the worker re-derives the same streams.
func TestScenarioSeedTravels(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process round trip")
	}
	s := loadT2Mirror(t)
	id := RegisterScenario(s)

	want := renderNamed(t, Config{Seed: 99}, id)
	if fixed := renderNamed(t, Config{}, id); fixed == want {
		t.Fatal("base seed 99 did not move the scenario's streams")
	}
	if got := renderNamed(t, Config{Seed: 99, Executor: newWorkerPool(t, 2)}, id); got != want {
		t.Fatalf("seeded distributed run differs:\n%s", firstDiff(want, got))
	}
}

func TestScenarioNameResolution(t *testing.T) {
	s := loadT2Mirror(t)
	id := RegisterScenario(s)

	if _, err := byName(id); err != nil {
		t.Errorf("full id: %v", err)
	}
	if e, err := byName("t2-mirror"); err != nil || e.name != id {
		t.Errorf("bare name resolved to (%q, %v), want %q", e.name, err, id)
	}
	// The compiled-in battery always wins over scenarios.
	if e, err := byName("t2"); err != nil || e.name != "t2" {
		t.Errorf("t2 resolved to (%q, %v)", e.name, err)
	}
	if _, err := byName("no-such-scenario"); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown name: err = %v", err)
	}

	// A second registration under the same bare name (different bytes,
	// so a different id) makes the bare name ambiguous; both full ids
	// keep working.
	src := strings.Replace(s.Source(), "count = 8000", "count = 8001", 1)
	s2, err := scenario.Parse(src, "variant.toml")
	if err != nil {
		t.Fatal(err)
	}
	id2 := RegisterScenario(s2)
	if id2 == id {
		t.Fatalf("different sources share id %q", id)
	}
	if _, err := byName("t2-mirror"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous bare name: err = %v", err)
	}
	if _, err := byName(id); err != nil {
		t.Errorf("full id after variant: %v", err)
	}
	if _, err := byName(id2); err != nil {
		t.Errorf("variant full id: %v", err)
	}
}
