package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchKeepsFastestAndStripsProcSuffix(t *testing.T) {
	in := `goos: linux
BenchmarkHeapAllocFree/policy=first-fit-8         1000    1500 ns/op    0 B/op    0 allocs/op
BenchmarkHeapAllocFree/policy=first-fit-8         1200    1029 ns/op    0 B/op    0 allocs/op
BenchmarkTLBLookup-8                            100000      77.35 ns/op
PASS
ok      dsa     1.234s
`
	snap, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(snap.Benchmarks), snap.Benchmarks)
	}
	heap := snap.Benchmarks[0]
	if heap.Name != "BenchmarkHeapAllocFree/policy=first-fit" {
		t.Fatalf("proc suffix not stripped: %q", heap.Name)
	}
	if heap.NsPerOp != 1029 {
		t.Fatalf("kept %v ns/op, want the fastest of the -count runs (1029)", heap.NsPerOp)
	}
	if heap.AllocsPerOp != 0 || heap.BytesPerOp != 0 {
		t.Fatalf("alloc counters mis-parsed: %+v", heap)
	}
	tlb := snap.Benchmarks[1]
	if tlb.Name != "BenchmarkTLBLookup" || tlb.NsPerOp != 77.35 {
		t.Fatalf("plain line mis-parsed: %+v", tlb)
	}
}

func TestParseBenchRejectsEmptyInput(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok dsa 0.1s\n")); err == nil {
		t.Fatal("want an error when no benchmark lines are present")
	}
}

func TestAllocsGeomean(t *testing.T) {
	oldBy := map[string]Result{
		"A": {Name: "A", AllocsPerOp: 100},
		"B": {Name: "B", AllocsPerOp: 400},
		"C": {Name: "C", AllocsPerOp: 0}, // no old-side data: skipped
		"D": {Name: "D", AllocsPerOp: 50},
	}
	newBy := map[string]Result{
		"A": {Name: "A", AllocsPerOp: 200}, // 2x regression
		"B": {Name: "B", AllocsPerOp: 200}, // 2x improvement
		"C": {Name: "C", AllocsPerOp: 7},
		"D": {Name: "D", AllocsPerOp: 0}, // clamped to 1: a big win, finite log
	}
	names := []string{"A", "B", "C", "D"}
	geo, n := allocsGeomean(oldBy, newBy, names)
	if n != 3 {
		t.Fatalf("gated %d benchmarks, want 3 (C has no old-side allocs)", n)
	}
	// ratios: 2, 0.5, 1/50 -> geomean = (2 * 0.5 * 0.02)^(1/3)
	want := 0.2714
	if geo < want-0.001 || geo > want+0.001 {
		t.Fatalf("geomean = %v, want ~%v", geo, want)
	}
}

func TestAllocsGeomeanNoData(t *testing.T) {
	oldBy := map[string]Result{"A": {Name: "A"}}
	newBy := map[string]Result{"A": {Name: "A", AllocsPerOp: 5}}
	geo, n := allocsGeomean(oldBy, newBy, []string{"A"})
	if n != 0 || geo != 1 {
		t.Fatalf("want (1, 0) with no old-side allocation data, got (%v, %d)", geo, n)
	}
}

func TestAllocsGeomeanGateBoundary(t *testing.T) {
	// A pure 10% allocation regression sits exactly at geomean 1.10:
	// the -gate-allocs 10 limit must not fire at the boundary and must
	// fire just past it — mirroring the time gate's strict inequality.
	oldBy := map[string]Result{"A": {Name: "A", AllocsPerOp: 100}}
	for _, tc := range []struct {
		newAllocs float64
		fail      bool
	}{
		{110, false},
		{111, true},
	} {
		newBy := map[string]Result{"A": {Name: "A", AllocsPerOp: tc.newAllocs}}
		geo, n := allocsGeomean(oldBy, newBy, []string{"A"})
		if n != 1 {
			t.Fatalf("gated %d benchmarks, want 1", n)
		}
		limit := 1 + 10.0/100
		if got := geo > limit; got != tc.fail {
			t.Fatalf("new allocs %v: geomean %v vs limit %v: fail=%v, want %v",
				tc.newAllocs, geo, limit, got, tc.fail)
		}
	}
}

func TestParseBenchRecordsHost(t *testing.T) {
	for _, tc := range []struct {
		in    string
		procs int
	}{
		{"BenchmarkA-4  10  5 ns/op\nBenchmarkB/x=1-4  10  5 ns/op\n", 4},
		{"BenchmarkA  10  5 ns/op\nBenchmarkB/x=1  10  5 ns/op\n", 1}, // go test omits -1
		{"BenchmarkA-4  10  5 ns/op\nBenchmarkB-8  10  5 ns/op\n", 0},
	} {
		snap, err := parseBench(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		h := snap.Host
		if h == nil || h.GOMAXPROCS != tc.procs || h.NProc != runtime.NumCPU() || h.GoVersion != runtime.Version() {
			t.Fatalf("host = %+v, want GOMAXPROCS %d, nproc %d, %s", h, tc.procs, runtime.NumCPU(), runtime.Version())
		}
	}
}

func TestCheckHosts(t *testing.T) {
	host := func(procs int) *Snapshot {
		return &Snapshot{Host: &Host{NProc: 8, GOMAXPROCS: procs, GoVersion: "go1.24.0"}}
	}
	if w, err := checkHosts(host(2), host(2), "old", "new"); w != "" || err != nil {
		t.Fatalf("same GOMAXPROCS: warning %q, err %v; want neither", w, err)
	}
	if _, err := checkHosts(host(1), host(4), "old", "new"); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS differs") {
		t.Fatalf("GOMAXPROCS 1 vs 4: err %v, want a GOMAXPROCS mismatch", err)
	}
	// Snapshots from before the host was recorded, or whose names mixed
	// GOMAXPROCS suffixes, still compare, with a one-line warning.
	legacy := &Snapshot{}
	for _, tc := range []struct {
		old, new *Snapshot
		why      string
	}{
		{legacy, host(4), "no host"},
		{host(4), legacy, "no host"},
		{legacy, legacy, "no host"},
		{host(0), host(4), "mixes GOMAXPROCS"},
		{host(4), host(0), "mixes GOMAXPROCS"},
	} {
		w, err := checkHosts(tc.old, tc.new, "old", "new")
		if err != nil || !strings.Contains(w, tc.why) || strings.Contains(w, "\n") {
			t.Fatalf("%s: warning %q, err %v; want a one-line warning", tc.why, w, err)
		}
	}
}

// TestRunDiffExitStatus checks diff's exit statuses stay apart: a
// GOMAXPROCS mismatch (3) is not a gate failure (2), so a gate against
// a stored baseline can tell a stale baseline from a regression.
func TestRunDiffExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int, ns float64) string {
		snap := Snapshot{Benchmarks: []Result{{Name: "BenchmarkA", Iterations: 10, NsPerOp: ns}}}
		if procs >= 0 {
			snap.Host = &Host{NProc: 8, GOMAXPROCS: procs, GoVersion: "go1.24.0"}
		}
		buf, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", 4, 100)
	for _, tc := range []struct {
		name, new string
		want      int
		stderr    string
	}{
		{"within gate", write("ok.json", 4, 105), 0, ""},
		{"past gate", write("slow.json", 4, 200), exitGate, ""},
		{"GOMAXPROCS mismatch", write("procs.json", 2, 100), exitHostMismatch, "GOMAXPROCS differs"},
		{"mismatch and past gate", write("both.json", 2, 200), exitHostMismatch, "GOMAXPROCS differs"},
		{"legacy", write("legacy.json", -1, 200), exitGate, "warning"},
		{"unreadable", filepath.Join(dir, "missing.json"), 1, "missing.json"},
	} {
		var out, errOut strings.Builder
		got := runDiff(base, tc.new, 10, 10, &out, &errOut)
		if got != tc.want || !strings.Contains(errOut.String(), tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d, stderr containing %q", tc.name, got, errOut.String(), tc.want, tc.stderr)
		}
	}
}

// TestCommittedSnapshotsLoad checks every committed BENCH_*.json
// still loads, with or without a host block.
func TestCommittedSnapshotsLoad(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed snapshots found: %v", err)
	}
	for _, p := range paths {
		snap, err := loadSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Benchmarks) == 0 {
			t.Fatalf("%s: no benchmarks", p)
		}
	}
}
