package main

import (
	"math"
	"testing"
	"time"
)

// The chase must visit every slot of the chain before it repeats, or
// its time would depend on a short cycle that fits in L1.
func TestRefChainIsOneCycle(t *testing.T) {
	l := newRefLane(1)
	seen := make([]bool, len(l.chain))
	p := int32(0)
	for i := 0; i < len(l.chain); i++ {
		if seen[p] {
			t.Fatalf("chain returns to slot %d after %d steps, want %d", p, i, len(l.chain))
		}
		seen[p] = true
		p = l.chain[p]
	}
	if p != 0 {
		t.Fatalf("chain does not close after %d steps", len(l.chain))
	}
}

// The kernel does the same work on every run, whatever ran before it.
func TestRefKernelIsFixedWork(t *testing.T) {
	a, b := newRefLane(0), newRefLane(0)
	first := a.run()
	a.touch()
	if got := a.run(); got != first {
		t.Errorf("second run of one lane gave %#x, first %#x", got, first)
	}
	if got := b.run(); got != first {
		t.Errorf("a fresh lane with the same seed gave %#x, want %#x", got, first)
	}
}

func TestHostRefFactor(t *testing.T) {
	h := &hostRef{samples: []float64{12, 30, 11, 12.5, 9}}
	// median 12 ms against a nominal of refNominalCPU
	if got, want := h.factor(), ms(refNominalCPU)/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("factor = %v, want %v", got, want)
	}
	if got := (&hostRef{}).factor(); got != 1 {
		t.Errorf("factor with no samples = %v, want 1", got)
	}
	if got := (hostTime{ms: 200, avail: 0.75}).unstolen(); got != 150 {
		t.Errorf("unstolen = %v, want 150", got)
	}
}

func TestStealWindow(t *testing.T) {
	steal, runnable := cpuTicks()
	if runnable <= 0 || steal < 0 || steal > runnable {
		t.Fatalf("cpuTicks = %d stolen of %d runnable", steal, runnable)
	}
	w := openWindow()
	for end := time.Now().Add(30 * time.Millisecond); time.Now().Before(end); {
	}
	if a := w.avail(); a < 0 || a > 1 {
		t.Errorf("avail = %v, want a share in [0, 1]", a)
	}
}
