package core

import (
	"math"
	"testing"

	"dsa/internal/sim"
)

// refSimulateMultiprogramming is the seed scheduler: every burst scans
// all programs for the lowest ready index, else the earliest readyAt
// (lowest index on ties). The FIFO-and-bitset scheduler must reproduce
// it exactly.
func refSimulateMultiprogramming(cfg MultiprogramConfig) (MultiprogramResult, error) {
	if cfg.Programs <= 0 || cfg.TotalFrames < cfg.Programs || cfg.RefsPerProgram <= 0 {
		return SimulateMultiprogramming(cfg) // same validation errors
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

	type prog struct {
		remaining int64
		readyAt   sim.Time
	}
	progs := make([]prog, cfg.Programs)
	for i := range progs {
		progs[i] = prog{remaining: cfg.RefsPerProgram}
		progs[i].readyAt = sim.Time(i) * cfg.FetchTime / sim.Time(cfg.Programs)
	}
	var now, busy sim.Time
	var faults int64
	for {
		best := -1
		var soonest sim.Time = math.MaxInt64
		for i := range progs {
			p := &progs[i]
			if p.remaining <= 0 {
				continue
			}
			if p.readyAt <= now {
				best = i
				break
			}
			if p.readyAt < soonest {
				soonest = p.readyAt
				best = -(i + 2)
			}
		}
		if best == -1 {
			break
		}
		if best < -1 {
			now = soonest
			continue
		}
		p := &progs[best]
		burst := interFault
		if burst > p.remaining {
			burst = p.remaining
		}
		span := sim.Time(burst) * cfg.ComputePerRef
		now += span
		busy += span
		p.remaining -= burst
		if p.remaining > 0 {
			faults++
			p.readyAt = now + cfg.FetchTime
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

// checkMultiprogLockstep requires the scheduler and the reference to
// return identical results (or both fail) for one config.
func checkMultiprogLockstep(t *testing.T, cfg MultiprogramConfig) {
	t.Helper()
	got, gerr := SimulateMultiprogramming(cfg)
	want, werr := refSimulateMultiprogramming(cfg)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%+v: error %v, reference %v", cfg, gerr, werr)
	}
	if got != want {
		t.Fatalf("%+v:\n got %+v\nwant %+v", cfg, got, want)
	}
}

// TestMultiprogrammingMatchesReferenceT8 pins the seven T8 degrees.
func TestMultiprogrammingMatchesReferenceT8(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		checkMultiprogLockstep(t, MultiprogramConfig{
			Programs:         n,
			TotalFrames:      64,
			FetchTime:        5000,
			LifetimeCoeff:    50,
			WorkingSetFrames: 8,
			RefsPerProgram:   300000,
		})
	}
}

// TestMultiprogrammingMatchesReferenceRandom drives random configs
// through both schedulers: more programs than one bitset word, zero
// and negative fetch times, the default compute cost, and reference
// counts that leave a short final burst.
func TestMultiprogrammingMatchesReferenceRandom(t *testing.T) {
	rng := sim.NewRNG(15)
	configs := 3000
	if testing.Short() {
		configs = 300
	}
	for c := 0; c < configs; c++ {
		programs := 1 + rng.Intn(150)
		cfg := MultiprogramConfig{
			Programs:         programs,
			TotalFrames:      programs * (1 + rng.Intn(6)),
			FetchTime:        sim.Time(rng.Intn(320) - 20),
			ComputePerRef:    sim.Time(rng.Intn(3)),
			LifetimeCoeff:    float64(rng.Intn(40)) / 8,
			WorkingSetFrames: rng.Intn(6),
			RefsPerProgram:   int64(1 + rng.Intn(400)),
		}
		if rng.Intn(8) == 0 {
			cfg.FetchTime = 0
		}
		checkMultiprogLockstep(t, cfg)
	}
	// Word boundaries of the ready bitset.
	for _, programs := range []int{63, 64, 65, 127, 128, 129, 150} {
		for _, fetch := range []sim.Time{-7, 0, 1, 97, 299} {
			checkMultiprogLockstep(t, MultiprogramConfig{
				Programs: programs, TotalFrames: 2 * programs, FetchTime: fetch,
				LifetimeCoeff: 3, RefsPerProgram: 101,
			})
		}
	}
}

// TestMultiprogrammingAllocsFlat guards the scheduler's state: its
// allocations are per program, never per burst, so they must not grow
// with RefsPerProgram.
func TestMultiprogrammingAllocsFlat(t *testing.T) {
	for _, programs := range []int{8, 64, 130} {
		allocs := func(refs int64) float64 {
			cfg := MultiprogramConfig{
				Programs: programs, TotalFrames: 64 * programs / 8, FetchTime: 5000,
				LifetimeCoeff: 50, WorkingSetFrames: 8, RefsPerProgram: refs,
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := SimulateMultiprogramming(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(1000), allocs(100000)
		if long > short {
			t.Errorf("programs=%d: %.0f allocs at 100000 refs vs %.0f at 1000", programs, long, short)
		}
	}
}
