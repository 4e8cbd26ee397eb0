package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dsa/internal/sim"
)

// MultiprogramConfig parameterizes the multiprogramming-overlap study
// (experiment T8). The paper argues a large space-time product "will
// not overly affect the performance of a system if the time spent on
// fetching pages can normally be overlapped with the execution of other
// programs", provided each program keeps enough working storage that
// "further pages are not demanded too frequently".
//
// The model: TotalFrames of core are shared equally by Programs
// identical programs. A program computes for its inter-fault interval,
// then blocks for FetchTime while its page arrives; the single
// processor runs any ready program meanwhile. The inter-fault interval
// follows a parabolic lifetime curve e(f) = LifetimeCoeff·f², the
// classical Belady lifetime shape: more frames, quadratically fewer
// faults. Raising the degree of multiprogramming therefore first soaks
// up fetch latency and then collapses into thrashing as per-program
// frames shrink — the paper's "unsuitable environments" warning.
type MultiprogramConfig struct {
	// Programs is the degree of multiprogramming.
	Programs int
	// TotalFrames is the core allotment shared by all programs.
	TotalFrames int
	// FetchTime is the page fetch latency in ticks.
	FetchTime sim.Time
	// ComputePerRef is the execution cost per reference (default 1).
	ComputePerRef sim.Time
	// LifetimeCoeff scales the lifetime curve e(f) = coeff·min(f, w)².
	LifetimeCoeff float64
	// WorkingSetFrames is the saturation point w of the lifetime curve:
	// frames beyond a program's working set buy nothing ("sufficient
	// working storage space for each program so that further pages are
	// not demanded too frequently"). 0 means never saturates.
	WorkingSetFrames int
	// RefsPerProgram is the reference count each program must execute.
	RefsPerProgram int64
}

// MultiprogramResult reports the outcome of the overlap simulation.
type MultiprogramResult struct {
	// CPUUtilization is busy time / elapsed time.
	CPUUtilization float64
	// Elapsed is total simulated time.
	Elapsed sim.Time
	// Faults is the total fault count across programs.
	Faults int64
	// FramesPerProgram is the equal share each program received.
	FramesPerProgram int
	// InterFault is the modeled references between faults.
	InterFault int64
}

// SimulateMultiprogramming runs the overlap model to completion. The
// processor runs the lowest-indexed ready program; when none is ready
// it idles until the earliest fetch completes, the lowest index
// winning ties.
//
// No burst scans the programs. Ready programs are bits in a bitset, so
// the lowest ready index is one trailing-zero count per word. Programs
// waiting on a fetch sit in a FIFO ring that is always in readyAt
// order: the initial stagger i·F/n ascends with i, every later push
// has readyAt = now + FetchTime with now never decreasing, and when
// FetchTime ≤ 0 everything queued is already due. Completed fetches
// therefore leave from the head, and the head is the next completion.
func SimulateMultiprogramming(cfg MultiprogramConfig) (MultiprogramResult, error) {
	if cfg.Programs <= 0 {
		return MultiprogramResult{}, errors.New("core: need at least one program")
	}
	if cfg.TotalFrames < cfg.Programs {
		return MultiprogramResult{}, fmt.Errorf("core: %d frames cannot host %d programs",
			cfg.TotalFrames, cfg.Programs)
	}
	if cfg.RefsPerProgram <= 0 {
		return MultiprogramResult{}, errors.New("core: non-positive reference count")
	}
	if cfg.ComputePerRef <= 0 {
		cfg.ComputePerRef = 1
	}
	if cfg.LifetimeCoeff <= 0 {
		cfg.LifetimeCoeff = 1
	}

	frames := cfg.TotalFrames / cfg.Programs
	eff := frames
	if cfg.WorkingSetFrames > 0 && eff > cfg.WorkingSetFrames {
		eff = cfg.WorkingSetFrames
	}
	interFault := int64(math.Max(1, cfg.LifetimeCoeff*float64(eff)*float64(eff)))

	n := cfg.Programs
	remaining := make([]int64, n)
	readyAt := make([]sim.Time, n) // time the program's outstanding fetch completes
	ready := make([]uint64, (n+63)/64)
	waiting := make([]int, n) // ring of program indexes in readyAt order
	head, queued := 0, n
	for i := range remaining {
		remaining[i] = cfg.RefsPerProgram
		// Initial page fetch: programs stagger in.
		readyAt[i] = sim.Time(i) * cfg.FetchTime / sim.Time(n)
		waiting[i] = i
	}

	var now, busy sim.Time
	var faults int64
	for {
		// Completed fetches make their programs ready.
		for queued > 0 && readyAt[waiting[head]] <= now {
			i := waiting[head]
			ready[i>>6] |= 1 << (i & 63)
			if head++; head == n {
				head = 0
			}
			queued--
		}
		i := lowestSet(ready)
		if i < 0 {
			if queued == 0 {
				break // all done
			}
			now = readyAt[waiting[head]] // CPU idles until a fetch completes
			continue
		}
		burst := interFault
		if burst > remaining[i] {
			burst = remaining[i]
		}
		span := sim.Time(burst) * cfg.ComputePerRef
		now += span
		busy += span
		remaining[i] -= burst
		ready[i>>6] &^= 1 << (i & 63)
		if remaining[i] > 0 {
			faults++
			readyAt[i] = now + cfg.FetchTime
			tail := head + queued
			if tail >= n {
				tail -= n
			}
			waiting[tail] = i
			queued++
		}
	}
	util := 0.0
	if now > 0 {
		util = float64(busy) / float64(now)
	}
	return MultiprogramResult{
		CPUUtilization:   util,
		Elapsed:          now,
		Faults:           faults,
		FramesPerProgram: frames,
		InterFault:       interFault,
	}, nil
}

// lowestSet returns the index of the lowest set bit, or -1 if none is.
func lowestSet(words []uint64) int {
	for w, word := range words {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}

// OverlapSweep runs the simulation across degrees of multiprogramming
// and returns results sorted by degree — the T8 series.
func OverlapSweep(base MultiprogramConfig, degrees []int) ([]MultiprogramResult, error) {
	out := make([]MultiprogramResult, 0, len(degrees))
	sorted := append([]int(nil), degrees...)
	sort.Ints(sorted)
	for _, n := range sorted {
		cfg := base
		cfg.Programs = n
		r, err := SimulateMultiprogramming(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
