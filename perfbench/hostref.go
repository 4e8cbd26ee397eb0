package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is a shared virtual machine whose
// speed drifts over minutes in two ways. The hypervisor steals CPU time
// from the guest: wall time grows while the guest's CPU accounting,
// which leaves stolen time out, does not. And the CPU the guest does
// get runs slower or faster, by up to a factor of two, as neighbours
// load the caches and cores it shares: wall and CPU time grow together.
// Runs minutes apart then disagree far more than a change to the
// program would move them. The benchmark corrects for both:
//
//   - each timed interval's wall time is multiplied by the share of the
//     time the guest's CPUs wanted to run over it that the host let
//     them run (from /proc/stat);
//   - wall and CPU times are multiplied by refNominalCPU over the
//     median CPU time of a fixed reference kernel run between the
//     run's operations.
//
// The kernel calls nothing of the program: pointer chasing over a
// random cycle the size of a core's L2, cache-resident integer mixing
// and a sort, one lane per CPU so it loads the host the way the
// parallel workloads do. A corrected figure reads as the time the
// interval would take with no stolen time on a host where the kernel
// takes refNominalCPU per lane.

// refNominalCPU is about the kernel's CPU time per lane on the 2-core
// x86-64 virtual machine the bounds were set on, where a run's median
// ranged from 9 to 13 ms.
const refNominalCPU = 10 * time.Millisecond

const (
	refChainLen = 1 << 19 // int32s per lane: 2 MiB, one core's L2
	refRepeats  = 3       // runs per tick; the fastest counts
	refChase    = 100_000 // pointer-chasing steps per lane
	refMixLen   = 1 << 12 // uint64s mixed per lane: 32 KiB, in L1/L2
	refMixSteps = 400_000
	refSortLen  = 1 << 15
)

// refLane is one goroutine's share of the kernel. Its buffers are
// allocated once, so a run of the kernel allocates nothing and never
// waits on the garbage collector.
type refLane struct {
	chain  []int32  // one random cycle over all indices
	mixIn  []uint64 // fixed random start of the mixing table
	mix    []uint64 // table the mixing loop reads and writes
	sorted []uint32 // fixed random input of the sort
	work   []uint32 // the sort's scratch copy
}

func newRefLane(lane int) refLane {
	rng := rand.New(rand.NewPCG(0x5eed, uint64(lane)))
	l := refLane{
		chain:  make([]int32, refChainLen),
		mixIn:  make([]uint64, refMixLen),
		mix:    make([]uint64, refMixLen),
		sorted: make([]uint32, refSortLen),
		work:   make([]uint32, refSortLen),
	}
	// Sattolo's algorithm: a uniformly random single cycle, so the
	// chase visits every slot before it repeats.
	for i := range l.chain {
		l.chain[i] = int32(i)
	}
	for i := len(l.chain) - 1; i > 0; i-- {
		j := rng.IntN(i)
		l.chain[i], l.chain[j] = l.chain[j], l.chain[i]
	}
	for i := range l.mixIn {
		l.mixIn[i] = rng.Uint64()
	}
	for i := range l.sorted {
		l.sorted[i] = rng.Uint32()
	}
	return l
}

// touch reads every buffer of the lane once, so the timed run finds
// them cached whatever the program left in the caches.
func (l *refLane) touch() uint64 {
	var x uint64
	for _, v := range l.chain {
		x += uint64(v)
	}
	for _, v := range l.mixIn {
		x += v
	}
	for _, v := range l.sorted {
		x += uint64(v)
	}
	return x
}

// run does the lane's fixed work and returns a value that depends on
// all of it, so none of it can be optimised away.
func (l *refLane) run() uint64 {
	p := int32(0)
	for i := 0; i < refChase; i++ {
		p = l.chain[p]
	}
	x := uint64(p) | 1
	copy(l.mix, l.mixIn)
	for i := 0; i < refMixSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refMixLen - 1)
		l.mix[j] += x
		x += l.mix[(j*7+1)&(refMixLen-1)]
	}
	copy(l.work, l.sorted)
	slices.Sort(l.work)
	return x ^ uint64(l.work[len(l.work)/2])
}

// hostRef runs the kernel and keeps the CPU time per lane of each tick.
type hostRef struct {
	lanes   []refLane
	samples []float64 // ms
	sink    uint64
}

func newHostRef(lanes int) *hostRef {
	h := &hostRef{}
	for i := 0; i < lanes; i++ {
		h.lanes = append(h.lanes, newRefLane(i))
	}
	return h
}

// tick collects garbage, so no collection runs beside the kernel and
// the program's heap does not enter its time, loads the kernel's data
// into the caches, then runs the kernel refRepeats times on every lane
// at once and records the fastest run's CPU time per lane: an
// interrupted run is slow for reasons other than the host's speed.
func (h *hostRef) tick() {
	runtime.GC()
	for i := range h.lanes {
		h.sink ^= h.lanes[i].touch()
	}
	best := 0.0
	for i := 0; i < refRepeats; i++ {
		cpu0 := selfCPU()
		h.runLanes()
		t := ms(selfCPU()-cpu0) / float64(len(h.lanes))
		if i == 0 || t < best {
			best = t
		}
	}
	h.samples = append(h.samples, best)
}

// runLanes runs the kernel once on every lane at the same time.
func (h *hostRef) runLanes() {
	out := make([]uint64, len(h.lanes))
	var wg sync.WaitGroup
	for i := range h.lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = h.lanes[i].run()
		}(i)
	}
	wg.Wait()
	for _, v := range out {
		h.sink ^= v
	}
}

// refMS is the kernel's median CPU time per lane over the run.
func (h *hostRef) refMS() float64 { return median(h.samples) }

// factor scales a time measured in this run to nominal host speed.
func (h *hostRef) factor() float64 {
	if h.refMS() <= 0 {
		return 1
	}
	return ms(refNominalCPU) / h.refMS()
}

// hostTime is a timed interval: its wall time and the share of the
// time the guest's CPUs wanted to run over it that the host let them.
type hostTime struct {
	ms, avail float64
}

// unstolen is the interval's wall time with stolen time taken out.
func (t hostTime) unstolen() float64 { return t.ms * t.avail }

// stealWindow is the host-wide CPU time accounting at a moment.
type stealWindow struct {
	steal, runnable int64
}

func openWindow() stealWindow {
	s, r := cpuTicks()
	return stealWindow{s, r}
}

// avail is the share of the time the guest's CPUs wanted to run since w
// opened that the host let them run; 1 when no tick has passed. Idle
// time is left out: an idle CPU loses nothing to stealing.
func (w stealWindow) avail() float64 {
	s, r := cpuTicks()
	if r <= w.runnable {
		return 1
	}
	return 1 - float64(s-w.steal)/float64(r-w.runnable)
}
