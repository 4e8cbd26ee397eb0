package mapping

import (
	"fmt"
	"maps"
	"testing"

	"dsa/internal/addr"
	"dsa/internal/sim"
)

// refTLB is the seed associative memory: frame and recency-stamp maps,
// eviction by scanning every register for the minimum stamp. The
// stamps are unique, so min-stamp eviction is strict LRU — which is
// what the register array must reproduce exactly.
type refTLB struct {
	capacity int
	frames   map[TLBKey]int
	stamp    map[TLBKey]uint64
	clock    uint64
	hits     int64
	misses   int64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{
		capacity: capacity,
		frames:   make(map[TLBKey]int, capacity),
		stamp:    make(map[TLBKey]uint64, capacity),
	}
}

func (t *refTLB) lookup(k TLBKey) (int, bool) {
	f, ok := t.frames[k]
	if ok {
		t.hits++
		t.clock++
		t.stamp[k] = t.clock
		return f, true
	}
	t.misses++
	return 0, false
}

func (t *refTLB) install(k TLBKey, frame int) {
	if t.capacity == 0 {
		return
	}
	if _, ok := t.frames[k]; !ok && len(t.frames) >= t.capacity {
		var victim TLBKey
		var oldest uint64
		first := true
		for key, s := range t.stamp {
			if first || s < oldest {
				victim = key
				oldest = s
				first = false
			}
		}
		delete(t.frames, victim)
		delete(t.stamp, victim)
	}
	t.frames[k] = frame
	t.clock++
	t.stamp[k] = t.clock
}

func (t *refTLB) invalidate(k TLBKey) {
	delete(t.frames, k)
	delete(t.stamp, k)
}

func (t *refTLB) invalidateSegment(seg addr.SegID) {
	for k := range t.frames {
		if k.Seg == seg {
			t.invalidate(k)
		}
	}
}

func (t *refTLB) flush() {
	clear(t.frames)
	clear(t.stamp)
}

// tlbOp is one decoded associative-memory operation.
type tlbOp struct {
	kind  byte // 0 lookup, 1 install, 2 invalidate page, 3 invalidate segment, 4 flush
	key   TLBKey
	frame int
}

// maxTLBCapacity is the largest associative memory of the appendix
// machines (the B8500's 44 thin-film words).
const maxTLBCapacity = 44

// checkTLBLockstep drives the register array and the seed stamp-scan
// implementation through the same operations and requires identical
// lookup results, statistics and (critically) identical eviction
// decisions throughout.
func checkTLBLockstep(t *testing.T, capacity int, ops []tlbOp) {
	t.Helper()
	tlb := NewTLB(capacity)
	ref := newRefTLB(capacity)
	for step, op := range ops {
		switch op.kind {
		case 0:
			gf, gok := tlb.Lookup(op.key)
			wf, wok := ref.lookup(op.key)
			if gok != wok || (gok && gf != wf) {
				t.Fatalf("step %d: Lookup(%v) = (%d,%v), reference (%d,%v)",
					step, op.key, gf, gok, wf, wok)
			}
		case 1:
			tlb.Install(op.key, op.frame)
			ref.install(op.key, op.frame)
		case 2:
			tlb.InvalidatePage(op.key)
			ref.invalidate(op.key)
		case 3:
			tlb.InvalidateSegment(op.key.Seg)
			ref.invalidateSegment(op.key.Seg)
		default:
			tlb.Flush()
			ref.flush()
		}
		if tlb.Len() != len(ref.frames) {
			t.Fatalf("step %d: Len = %d, reference %d", step, tlb.Len(), len(ref.frames))
		}
		h, m := tlb.Stats()
		if h != ref.hits || m != ref.misses {
			t.Fatalf("step %d: stats (%d,%d), reference (%d,%d)", step, h, m, ref.hits, ref.misses)
		}
	}
	// The register contents themselves must agree at the end.
	for k, f := range ref.frames {
		if got, ok := tlb.Lookup(k); !ok || got != f {
			t.Fatalf("final: entry %v = (%d,%v), reference %d", k, got, ok, f)
		}
	}
}

// TestTLBMatchesReference runs long random operation mixes, in which
// flushes and segment invalidations are rare, at the capacities of the
// appendix machines.
func TestTLBMatchesReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 8, maxTLBCapacity} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			rng := sim.NewRNG(uint64(capacity) + 17)
			ops := make([]tlbOp, 8000)
			for i := range ops {
				op := tlbOp{
					key: TLBKey{
						Seg:  addr.SegID(rng.Intn(4)),
						Page: uint64(rng.Intn(3 * (capacity + 2))),
					},
					frame: rng.Intn(256),
				}
				switch k := rng.Intn(200); {
				case k < 100:
					op.kind = 0
				case k < 180:
					op.kind = 1
				case k < 195:
					op.kind = 2
				case k < 198:
					op.kind = 3
				default:
					op.kind = 4
				}
				ops[i] = op
			}
			checkTLBLockstep(t, capacity, ops)
		})
	}
}

// decodeTLBOps decodes fuzz input. The first byte picks the capacity
// (0 to 44); every following byte pair is one operation. The low three
// bits of its first byte pick the kind (lookups and installs twice as
// likely as the rest), the next two the segment, and the second byte
// the page, folded to a few more pages than the memory holds so that
// hits and evictions both occur.
func decodeTLBOps(data []byte) (capacity int, ops []tlbOp) {
	if len(data) == 0 {
		return 0, nil
	}
	capacity = int(data[0]) % (maxTLBCapacity + 1)
	kinds := [8]byte{0, 0, 1, 1, 2, 3, 4, 0}
	for rec := data[1:]; len(rec) >= 2; rec = rec[2:] {
		ops = append(ops, tlbOp{
			kind:  kinds[rec[0]&7],
			key:   TLBKey{Seg: addr.SegID(rec[0] >> 3 & 3), Page: uint64(rec[1]) % uint64(capacity+3)},
			frame: int(rec[0]>>5) ^ int(rec[1]),
		})
	}
	return capacity, ops
}

// FuzzTLBLockstep runs arbitrary operation sequences through the
// register array and the seed reference. The seed corpus in
// testdata/fuzz covers the capacities of the appendix machines.
func FuzzTLBLockstep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, ops := decodeTLBOps(data)
		checkTLBLockstep(t, capacity, ops)
	})
}

// TestTLBSteadyStateAllocs pins the install/evict hot path: the
// miss→install→evict churn of a sweep must not allocate.
func TestTLBSteadyStateAllocs(t *testing.T) {
	tlb := NewTLB(8)
	page := uint64(0)
	cycle := func() {
		for i := 0; i < 16; i++ {
			page++
			k := TLBKey{Seg: 1, Page: page % 24}
			if _, ok := tlb.Lookup(k); !ok {
				tlb.Install(k, int(page)%32)
			}
		}
	}
	cycle() // warm: fills the registers
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
		t.Fatalf("TLB lookup/install/evict cycle allocates %.1f times per run", avg)
	}
}

// tlbRegisters snapshots the valid registers as key → (frame, stamp).
func tlbRegisters(t *TLB) map[TLBKey][2]uint64 {
	out := make(map[TLBKey][2]uint64, t.n)
	for i, p := range t.pages[:t.n] {
		out[TLBKey{Seg: t.segs[i], Page: p}] = [2]uint64{uint64(t.frames[i]), t.used[i]}
	}
	return out
}

// TestTwoLevelRetractDropsOnlyItsSegment checks Retract's one-pass
// segment invalidation against the per-page InvalidatePage loop it
// replaced: exactly the retracted segment's registers go, and every
// other register keeps its frame and use stamp, so later evictions
// follow the same LRU order.
func TestTwoLevelRetractDropsOnlyItsSegment(t *testing.T) {
	for _, capacity := range []int{1, 8, maxTLBCapacity} {
		for gone := addr.SegID(0); gone < 4; gone++ {
			for seed := uint64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("capacity=%d/seg=%d/seed=%d", capacity, gone, seed), func(t *testing.T) {
					checkRetract(t, capacity, gone, seed)
				})
			}
		}
	}
}

func checkRetract(t *testing.T, capacity int, gone addr.SegID, seed uint64) {
	const segs, pages, pageSize = 4, 16, 64
	var ca, cb sim.Clock
	a := NewTwoLevel(&ca, segs, capacity, 1)
	b := NewTwoLevel(&cb, segs, capacity, 1)
	for s := addr.SegID(0); s < segs; s++ {
		pa, _ := a.Establish(s, pages*pageSize, pageSize)
		pb, _ := b.Establish(s, pages*pageSize, pageSize)
		for p := 0; p < pages; p++ {
			_ = pa.SetEntry(uint64(p), int(s)*pages+p)
			_ = pb.SetEntry(uint64(p), int(s)*pages+p)
		}
	}
	rng := sim.NewRNG(seed)
	touch := func(n int) {
		for i := 0; i < n; i++ {
			s, name := addr.SegID(rng.Intn(segs)), addr.Name(rng.Intn(pages*pageSize))
			_, errA := a.Translate(s, name, false)
			_, errB := b.Translate(s, name, false)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("Translate(%d, %d): %v vs %v", s, name, errA, errB)
			}
		}
	}
	touch(300)
	before := tlbRegisters(a.TLB())
	a.Retract(gone)
	for p := uint64(0); p < pages; p++ {
		b.TLB().InvalidatePage(TLBKey{Seg: gone, Page: p})
	}
	b.Retract(gone)
	after := tlbRegisters(a.TLB())
	for k, r := range before {
		if got, ok := after[k]; k.Seg == gone && ok {
			t.Errorf("register %v of the retracted segment survived", k)
		} else if k.Seg != gone && got != r {
			t.Errorf("register %v: %v after Retract, %v before", k, got, r)
		}
	}
	if !maps.Equal(after, tlbRegisters(b.TLB())) {
		t.Fatalf("after Retract: %v, per-page loop %v", after, tlbRegisters(b.TLB()))
	}
	// Later traffic evicts in the same order on both.
	for i := 0; i < 100; i++ {
		touch(1)
		if ra, rb := tlbRegisters(a.TLB()), tlbRegisters(b.TLB()); !maps.Equal(ra, rb) {
			t.Fatalf("step %d after Retract: %v vs %v", i, ra, rb)
		}
	}
}
