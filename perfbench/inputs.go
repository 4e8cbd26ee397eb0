package main

import (
	"hash/fnv"
	"time"
)

// Every input the benchmark hands the program is derived here from the
// --seed argument alone, with the benchmark's own generator (never the
// program's), so a change to the program cannot change its inputs.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

// newRNG returns the stream named label under seed: distinct labels
// give independent streams, so adding a draw to one input does not
// shift another.
func newRNG(seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// distinctSeeds draws n distinct nonzero seeds from r that are not in
// taken, and adds them to taken.
func distinctSeeds(r *rng, n int, taken map[uint64]bool) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := r.next()
		if s == 0 || taken[s] {
			continue
		}
		taken[s] = true
		out = append(out, s)
	}
	return out
}

// batterySeedCount is the length of the battery seed list. Wall time
// per battery moves by about ±15% with the seed alone, so the list is
// long enough that its median is steady from one list to the next.
const batterySeedCount = 48

// batterySeeds is the seed list the battery workloads cycle through:
// the paper-exact seed 0 first (its output is checked against the
// golden file), then batterySeedCount-1 seeds derived from seed.
func batterySeeds(seed uint64) []uint64 {
	taken := map[uint64]bool{0: true}
	return append([]uint64{0}, distinctSeeds(newRNG(seed, "battery"), batterySeedCount-1, taken)...)
}

// traceSeeds is the machines workload's trace seed list: seed 0, whose
// replay digests are recorded in machines.go, then seven derived seeds.
// Replay cost moves with the trace's locality, so a round replays many
// short traces rather than a few long ones.
func traceSeeds(seed uint64) []uint64 {
	taken := map[uint64]bool{0: true}
	return append([]uint64{0}, distinctSeeds(newRNG(seed, "traces"), 7, taken)...)
}

// Serve workload shape. The rate is a third of the fresh-key capacity
// measured on a 2-core x86-64 VM: a saturating schedule of t2+t3
// requests over two connections completed about 37 per second. At half
// that capacity the median latency moved by up to 17% between runs of
// one build, as overlapping requests amplify the host's own drift.
const (
	serveRate        = 12.0 // requests per second, open loop
	serveTenants     = 3
	serveWarmKeys    = 4
	serveRepeatShare = 0.25
)

// serveExperiments is what every served request submits: a small sweep
// with stochastic tables, so each seed is a distinct result key.
var serveExperiments = []string{"t2", "t3"}

// request is one scheduled submission of the serve workload.
type request struct {
	Index  int
	Due    time.Duration // from the start of the timed phase
	Tenant string
	Seed   uint64
	Repeat bool // Seed is a warm key completed during set-up
}

// warmSeeds are the keys set-up completes, so that repeats of them are
// served from the daemon's result cache.
func warmSeeds(seed uint64) []uint64 {
	return distinctSeeds(newRNG(seed, "serve-warm"), serveWarmKeys, map[uint64]bool{0: true})
}

// serveSchedule is the open-loop request schedule: one request every
// 1/rate seconds for the given duration. A fixed share of them, at
// positions drawn from seed, repeat a warm key; the rest carry
// distinct fresh seeds. Tenants are drawn from seed too.
func serveSchedule(seed uint64, rate, seconds float64) []request {
	n := int(rate * seconds)
	if n < 1 {
		n = 1
	}
	warm := warmSeeds(seed)
	taken := map[uint64]bool{0: true}
	for _, s := range warm {
		taken[s] = true
	}
	r := newRNG(seed, "serve-schedule")

	// Exactly round(n*share) repeats, at positions from a seeded
	// Fisher-Yates shuffle.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		pos[i], pos[j] = pos[j], pos[i]
	}
	repeat := make([]bool, n)
	for _, p := range pos[:int(float64(n)*serveRepeatShare+0.5)] {
		repeat[p] = true
	}

	interval := time.Duration(float64(time.Second) / rate)
	out := make([]request, n)
	for i := range out {
		q := request{Index: i, Due: time.Duration(i) * interval, Repeat: repeat[i]}
		q.Tenant = "tenant-" + string(rune('a'+r.intn(serveTenants)))
		if q.Repeat {
			q.Seed = warm[r.intn(len(warm))]
		} else {
			q.Seed = distinctSeeds(r, 1, taken)[0]
		}
		out[i] = q
	}
	return out
}
