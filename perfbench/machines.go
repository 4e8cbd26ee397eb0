package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"dsa/internal/core"
	"dsa/internal/machine"
	"dsa/internal/trace"
	"dsa/internal/workload/catalog"
	"dsa/internal/workload/stock"
)

// Machines workload shape: every appendix machine at the CLIs' default
// capacity scale replays a long working-set trace (pager, TLB and
// replacement path) and a long segmented workload (segment manager and
// heap placement path).
const (
	machineScale = 2
	machineRefs  = 50000
	machineSegs  = 32
)

var machineCtors = []func(int) (*machine.Machine, error){
	machine.Atlas, machine.M44, machine.B5000, machine.Rice, machine.B8500, machine.Multics, machine.M67,
}

// recordedDigests are the report digests of the seed-0 replays,
// recorded from the simulator as it stands. A change that only speeds
// up the simulator must leave every one of them unchanged; one that
// changes simulated output on purpose re-records them from the
// digests the failure messages print.
var recordedDigests = map[string]string{
	"atlas.workingset":   "1252755726c87048",
	"atlas.segments":     "830939f1882d63f5",
	"m44.workingset":     "83bdb1c155330b21",
	"m44.segments":       "2e08735f5f109acc",
	"b5000.workingset":   "40532426fb405d52",
	"b5000.segments":     "386e1634e3e93278",
	"rice.workingset":    "0063a023b7118f06",
	"rice.segments":      "32fbbad062d826f7",
	"b8500.workingset":   "d705ffa85be14876",
	"b8500.segments":     "f8f0ac4cfd49c71c",
	"multics.workingset": "d7e52c2ddf59dd05",
	"multics.segments":   "82f6e18a6d8c47ed",
	"m67.workingset":     "8c5bccf99b85d713",
	"m67.segments":       "0b50e6a6a4291f66",
}

// recordedFaults are the seed-0 sums of page faults and segment faults
// over the fourteen replays.
var recordedFaults = [2]int64{62110, 108}

// reportBytes renders every simulated statistic of a replay report.
func reportBytes(rep *core.Report) []byte {
	s := fmt.Sprintf("elapsed=%d spacetime=%+v", rep.Elapsed, rep.SpaceTime)
	if rep.Paging != nil {
		s += fmt.Sprintf(" paging=%+v", *rep.Paging)
	}
	if rep.SegStats != nil {
		s += fmt.Sprintf(" segments=%+v", *rep.SegStats)
	}
	if rep.Frag != nil {
		s += fmt.Sprintf(" frag=%+v", *rep.Frag)
	}
	return []byte(s)
}

func faults(rep *core.Report) (page, seg int64) {
	if rep.Paging != nil {
		page = rep.Paging.Faults
	}
	if rep.SegStats != nil {
		seg = rep.SegStats.SegFaults
	}
	return page, seg
}

// machineInputs are one trace seed's generated workloads: the
// working-set trace for each machine (machines with equal extents share
// one) and the machine-independent segmented workload.
type machineInputs struct {
	seed     uint64
	linear   []trace.Trace // indexed like machineCtors
	segments machine.SegWorkload
}

// generate builds every trace seed's inputs through a fresh catalog and
// returns the host time spent per kind.
func generate(seeds []uint64) ([]machineInputs, time.Duration, time.Duration, error) {
	cat := catalog.New()
	var genWS, genSeg time.Duration
	out := make([]machineInputs, len(seeds))
	for i, seed := range seeds {
		in := machineInputs{seed: seed, linear: make([]trace.Trace, len(machineCtors))}
		for j, ctor := range machineCtors {
			m, err := ctor(machineScale)
			if err != nil {
				return nil, 0, 0, err
			}
			t0 := time.Now()
			in.linear[j], err = stock.Linear(cat, "workingset", stock.Extent(m), machineRefs, seed)
			genWS += time.Since(t0)
			if err != nil {
				return nil, 0, 0, err
			}
		}
		t0 := time.Now()
		var err error
		in.segments, err = stock.Segments(cat, machineSegs, machineRefs, seed)
		genSeg += time.Since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		out[i] = in
	}
	return out, genWS, genSeg, nil
}

// replayTiming is one machine × kind replay of one trace seed.
type replayTiming struct {
	seed      uint64
	key       string // machine.kind
	build     time.Duration
	replay    time.Duration
	refs      int
	buildMB   float64
	page, seg int64
	digest    string
}

// round builds every machine fresh and replays both kinds for every
// trace seed. With tr non-nil it records a round span with a build and
// a replay span per seed, machine and kind.
func round(inputs []machineInputs, tr *tracer, op int64) ([]replayTiming, error) {
	rid := tr.id()
	start := time.Now()
	out := make([]replayTiming, 0, len(inputs)*2*len(machineCtors))
	for _, in := range inputs {
		for j, ctor := range machineCtors {
			for _, kind := range traceKinds {
				rt := replayTiming{seed: in.seed, key: machineKeys[j] + "." + kind}
				b0 := time.Now()
				m, err := ctor(machineScale)
				b1 := time.Now()
				if err != nil {
					return nil, err
				}
				var rep *core.Report
				if kind == "workingset" {
					rt.refs = len(in.linear[j])
					rep, err = m.RunLinear(in.linear[j])
				} else {
					rt.refs = len(in.segments.Refs)
					rep, err = m.RunWorkload(in.segments)
				}
				b2 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", rt.key, in.seed, err)
				}
				tr.record(tr.id(), rid, op, "build", rt.key, b0, b1)
				tr.record(tr.id(), rid, op, "replay", rt.key, b1, b2)
				rt.build, rt.replay = b1.Sub(b0), b2.Sub(b1)
				rt.page, rt.seg = faults(rep)
				d := sha256.Sum256(reportBytes(rep))
				rt.digest = hex.EncodeToString(d[:8])
				out = append(out, rt)
			}
		}
	}
	tr.record(rid, 0, op, "round", "", start, time.Now())
	return out, nil
}

func runMachines(_ context.Context, c config) (*result, error) {
	r := newResult()
	seeds := traceSeeds(c.seed)
	var inputs []machineInputs
	var setups []hostTime
	var genWS, genSeg []float64
	h := newHostRef(c.nproc)
	// The host reference kernel runs before the first set-up and after
	// each set-up and round.
	h.tick()
	for i := 0; i < setupRounds; i++ {
		inputs = nil // free the previous round's traces first
		runtime.GC()
		w := openWindow()
		t0 := time.Now()
		in, ws, seg, err := generate(seeds)
		if err != nil {
			return nil, err
		}
		inputs = in
		t := time.Since(t0)
		avail := w.avail()
		h.tick()
		setups = append(setups, hostTime{ms(t), avail})
		genWS = append(genWS, ws.Seconds())
		genSeg = append(genSeg, seg.Seconds())
	}

	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	first := map[string]string{} // seed/machine.kind -> first digest
	var ops []hostTime
	var cpus, tracedMS, plainMS, allocs, builds []float64
	var refs int64
	var replayTime time.Duration
	perReplay := map[string][]float64{}
	var faultSums [2]int64
	deadline := time.Now().Add(c.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		// A traced run alternates traced and untraced rounds, so their
		// difference is the tracing overhead.
		var optr *tracer
		if c.traced && i%2 == 0 {
			optr = tr
		}
		name := fmt.Sprintf("round-%d", i)
		r.attempted++
		a0 := allocMB()
		cpu0 := selfCPU()
		w := openWindow()
		t0 := time.Now()
		rts, err := round(inputs, optr, int64(i+1))
		wall := time.Since(t0)
		avail := w.avail()
		cpu := selfCPU() - cpu0
		h.tick()
		if err != nil {
			r.fail(name, "%v", err)
			continue
		}
		allocs = append(allocs, allocMB()-a0)
		ops = append(ops, hostTime{ms(wall), avail})
		cpus = append(cpus, ms(cpu))
		if optr != nil {
			tracedMS = append(tracedMS, ms(wall))
		} else if c.traced {
			plainMS = append(plainMS, ms(wall))
		}
		var b time.Duration
		var sums, seed0 [2]int64
		for _, rt := range rts {
			refs += int64(rt.refs)
			replayTime += rt.replay
			b += rt.build
			sums[0] += rt.page
			sums[1] += rt.seg
			perReplay[rt.key] = append(perReplay[rt.key], float64(rt.replay.Nanoseconds())/float64(rt.refs))
			k := fmt.Sprintf("%d/%s", rt.seed, rt.key)
			if prev, ok := first[k]; !ok {
				first[k] = rt.digest
			} else if prev != rt.digest {
				r.fail(name, "%s seed %d: report differs from its first replay", rt.key, rt.seed)
			}
			if rt.seed == 0 {
				seed0[0] += rt.page
				seed0[1] += rt.seg
				if recordedDigests[rt.key] != rt.digest {
					r.fail(name, "%s seed 0: report digest %s, recorded %s", rt.key, rt.digest, recordedDigests[rt.key])
				}
			}
		}
		if seed0 != recordedFaults {
			r.fail(name, "seed 0: %d page faults and %d segment faults, recorded %d and %d", seed0[0], seed0[1], recordedFaults[0], recordedFaults[1])
		}
		if len(ops) > 1 && sums != faultSums {
			r.fail(name, "fault counts %v differ from the first round's %v", sums, faultSums)
		}
		faultSums = sums
		builds = append(builds, b.Seconds())
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("no machine round completed")
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss)
	opStats(r, ops, cpus, setups, h)
	refsPerS := float64(refs) / replayTime.Seconds()
	r.set("sim_refs_per_s", refsPerS)
	r.show("sim_refs_per_s", refsPerS, "1/s")
	r.set("alloc_mb", median(allocs))
	r.show("alloc_mb", median(allocs), "MB")
	r.set("workload.gen_s.workingset", median(genWS))
	r.set("workload.gen_s.segments", median(genSeg))
	r.set("machine.build_s", median(builds))
	r.set("machine.build_mb", buildAllMB())
	r.set("core.page_faults", float64(faultSums[0]))
	r.set("core.segment_faults", float64(faultSums[1]))
	r.note("core: %d page faults, %d segment faults per round of %d trace seeds", faultSums[0], faultSums[1], len(seeds))
	for k, v := range perReplay {
		r.set("machine."+k+".ns_per_ref", median(v))
	}
	if c.traced {
		traceOverhead(r, tracedMS, plainMS)
		spanLayers(r, c, tr)
	}
	return r, nil
}

// buildAllMB is the heap allocation of constructing all seven machines
// once, measured outside the timed rounds.
func buildAllMB() float64 {
	a0 := allocMB()
	for _, ctor := range machineCtors {
		if _, err := ctor(machineScale); err != nil {
			return 0
		}
	}
	return allocMB() - a0
}
