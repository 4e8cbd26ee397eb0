package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleRepeatsForOneSeed(t *testing.T) {
	a := serveSchedule(7, serveRate, 20)
	b := serveSchedule(7, serveRate, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different schedules")
	}
	if reflect.DeepEqual(a, serveSchedule(8, serveRate, 20)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if !reflect.DeepEqual(batterySeeds(7), batterySeeds(7)) || !reflect.DeepEqual(traceSeeds(7), traceSeeds(7)) ||
		!reflect.DeepEqual(warmSeeds(7), warmSeeds(7)) {
		t.Fatal("one seed gave two different seed lists")
	}
}

func TestScheduleShape(t *testing.T) {
	const seconds = 20
	sched := serveSchedule(3, serveRate, seconds)
	if want := int(serveRate * seconds); len(sched) != want {
		t.Fatalf("%d requests, want %d", len(sched), want)
	}
	warm := map[uint64]bool{}
	for _, s := range warmSeeds(3) {
		warm[s] = true
	}
	fresh := map[uint64]bool{}
	repeats := 0
	rate := serveRate // a variable: the division is not a whole constant
	interval := time.Duration(float64(time.Second) / rate)
	for i, q := range sched {
		if q.Index != i || q.Due != time.Duration(i)*interval {
			t.Fatalf("request %d: index %d due %v", i, q.Index, q.Due)
		}
		if q.Repeat {
			repeats++
			if !warm[q.Seed] {
				t.Fatalf("request %d repeats seed %d, which is not a warm key", i, q.Seed)
			}
			continue
		}
		if q.Seed == 0 || warm[q.Seed] || fresh[q.Seed] {
			t.Fatalf("request %d: fresh seed %d is zero, warm or reused", i, q.Seed)
		}
		fresh[q.Seed] = true
	}
	if want := int(math.Round(float64(len(sched)) * serveRepeatShare)); repeats != want {
		t.Fatalf("%d repeats, want %d", repeats, want)
	}
}

func TestBatterySeedsStartAtPaperSeed(t *testing.T) {
	s := batterySeeds(5)
	if len(s) != batterySeedCount || s[0] != 0 {
		t.Fatalf("battery seeds %v: want %d seeds starting with 0", s, batterySeedCount)
	}
	seen := map[uint64]bool{}
	for _, x := range s {
		if seen[x] {
			t.Fatalf("seed %d listed twice", x)
		}
		seen[x] = true
	}
	if tr := traceSeeds(5); tr[0] != 0 {
		t.Fatalf("trace seeds %v must start with 0, whose digests are recorded", tr)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if median([]float64{1, 2, 3, 10}) != 2.5 {
		t.Error("median of an even count is not the midpoint")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{10000, 99.9, 10},
		{9999, 99, 99},
		{1000, 99, 10},
		{999, 95, 49},
		{360, 95, 18},
		{200, 95, 10},
		{199, 90, 19},
		{100, 90, 10},
		{99, 75, 24},
		{72, 75, 18},
		{40, 75, 10},
		{39, 50, 19},
		{10, 50, 5},
	} {
		pct, beyond := tailPercentile(c.n)
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, pct, beyond, c.pct, c.beyond)
		}
	}
}

func TestDueLatency(t *testing.T) {
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	due := 500 * time.Millisecond
	// Sent 30 ms late, answered 20 ms after sending: 50 ms from due.
	end := epoch.Add(due + 30*time.Millisecond + 20*time.Millisecond)
	if got := dueLatency(epoch, due, end); got != 50*time.Millisecond {
		t.Fatalf("dueLatency = %v, want 50ms", got)
	}
	if got := ms(dueLatency(epoch, due, end)); got != 50 {
		t.Fatalf("ms = %v, want 50", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// A 100-unit parent with two overlapping children covering 10..60
	// and a third at 80..90 plus one that sticks out past the end.
	spans := []span{
		{ID: 1, Name: "battery", Op: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sweep", Op: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sweep", Op: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "render", Op: 1, Start: 80, End: 90},
		{ID: 5, Parent: 1, Name: "render", Op: 1, Start: 95, End: 120},
		{ID: 6, Parent: 2, Name: "cell", Op: 1, Start: 10, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 35, 2: 20, 3: 30, 4: 10, 5: 25, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	by := selfByName(spans)
	if by["sweep"] != (50 * time.Nanosecond).Seconds() {
		t.Errorf("sweep self time per op %v, want 50ns", by["sweep"])
	}
}
