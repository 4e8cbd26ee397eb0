package store

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"dsa/internal/sim"
)

// refLevel is the flat-array Level the chunked one replaced: every
// word allocated up front, copies through the built-in copy. FuzzLevel
// drives both through the same operations and requires identical
// words, clocks, counters and errors throughout.
type refLevel struct {
	name      string
	clock     *sim.Clock
	words     []uint64
	access    sim.Time
	word      sim.Time
	reads     int64
	writes    int64
	transfers int64
	moved     int64
}

func (l *refLevel) cost(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return l.access + sim.Time(n)*l.word
}

func (l *refLevel) stats() LevelStats {
	return LevelStats{Reads: l.reads, Writes: l.writes, Transfers: l.transfers, WordsMoved: l.moved}
}

func (l *refLevel) ReadWord(addr int) (uint64, error) {
	if addr < 0 || addr >= len(l.words) {
		return 0, fmt.Errorf("%w: read %s[%d], capacity %d", ErrBounds, l.name, addr, len(l.words))
	}
	l.clock.Advance(l.access + l.word)
	l.reads++
	return l.words[addr], nil
}

func (l *refLevel) WriteWord(addr int, v uint64) error {
	if addr < 0 || addr >= len(l.words) {
		return fmt.Errorf("%w: write %s[%d], capacity %d", ErrBounds, l.name, addr, len(l.words))
	}
	l.clock.Advance(l.access + l.word)
	l.writes++
	l.words[addr] = v
	return nil
}

func refTransfer(src *refLevel, srcAddr int, dst *refLevel, dstAddr, n int, charge bool) error {
	if n < 0 {
		return fmt.Errorf("store: negative transfer length %d", n)
	}
	if srcAddr < 0 || srcAddr+n > len(src.words) {
		return fmt.Errorf("%w: transfer source %s[%d:%d], capacity %d",
			ErrBounds, src.name, srcAddr, srcAddr+n, len(src.words))
	}
	if dstAddr < 0 || dstAddr+n > len(dst.words) {
		return fmt.Errorf("%w: transfer destination %s[%d:%d], capacity %d",
			ErrBounds, dst.name, dstAddr, dstAddr+n, len(dst.words))
	}
	if charge {
		cost := src.cost(n)
		if c := dst.cost(n); c > cost {
			cost = c
		}
		src.clock.Advance(cost)
	}
	copy(dst.words[dstAddr:dstAddr+n], src.words[srcAddr:srcAddr+n])
	src.transfers++
	dst.transfers++
	src.moved += int64(n)
	dst.moved += int64(n)
	return nil
}

func refMoveWithin(l *refLevel, srcAddr, dstAddr, n int) error {
	if n < 0 {
		return fmt.Errorf("store: negative move length %d", n)
	}
	if srcAddr < 0 || srcAddr+n > len(l.words) {
		return fmt.Errorf("%w: move source %s[%d:%d]", ErrBounds, l.name, srcAddr, srcAddr+n)
	}
	if dstAddr < 0 || dstAddr+n > len(l.words) {
		return fmt.Errorf("%w: move destination %s[%d:%d]", ErrBounds, l.name, dstAddr, dstAddr+n)
	}
	l.clock.Advance(l.cost(n))
	copy(l.words[dstAddr:dstAddr+n], l.words[srcAddr:srcAddr+n])
	l.transfers++
	l.moved += int64(n)
	return nil
}

// levelOp is one decoded store operation.
type levelOp struct {
	kind     byte // 0 read, 1 write, 2 transfer, 3 overlapped, 4 move
	src, dst int  // level index 0 or 1
	srcAddr  int
	dstAddr  int
	n        int
	v        uint64
}

// maxLevelOps caps the operations decoded from one input: every word
// is compared after each, so longer inputs only slow the fuzzer down.
const maxLevelOps = 64

// decodeLevelOps decodes fuzz input into store operations. The first
// four bytes size the two levels (up to three chunks and a remainder,
// so capacities are rarely chunk multiples); every following 8-byte
// record is one operation. Addresses fall in [-2, capacity+2) and
// lengths in [-1, 2*chunkWords+62), so bounds errors, chunk-straddling
// spans and multi-chunk copies all occur. Records with the relative
// bit set place the destination within ±128 words of the source, which
// makes same-level overlaps in both directions common.
func decodeLevelOps(data []byte) (capA, capB int, ops []levelOp) {
	if len(data) < 4 {
		return 1, 1, nil
	}
	capA = 1 + int(binary.LittleEndian.Uint16(data[0:]))%(3*chunkWords+61)
	capB = 1 + int(binary.LittleEndian.Uint16(data[2:]))%(3*chunkWords+61)
	caps := [2]int{capA, capB}
	for rec := data[4:]; len(rec) >= 8 && len(ops) < maxLevelOps; rec = rec[8:] {
		op := levelOp{kind: rec[0] % 5, src: int(rec[1] & 1), dst: int(rec[1] >> 1 & 1)}
		if op.kind == 4 {
			op.dst = op.src
		}
		op.srcAddr = int(binary.LittleEndian.Uint16(rec[2:]))%(caps[op.src]+4) - 2
		if rec[1]&4 != 0 {
			op.dstAddr = op.srcAddr + int(int8(rec[4]))
		} else {
			op.dstAddr = int(binary.LittleEndian.Uint16(rec[4:]))%(caps[op.dst]+4) - 2
		}
		op.n = int(binary.LittleEndian.Uint16(rec[6:]))%(2*chunkWords+63) - 1
		op.v = binary.LittleEndian.Uint64(rec) | 1
		ops = append(ops, op)
	}
	return capA, capB, ops
}

// checkLevelLockstep runs one decoded input against both models.
func checkLevelLockstep(t *testing.T, data []byte) {
	capA, capB, ops := decodeLevelOps(data)
	var clock, refClock sim.Clock
	got := [2]*Level{
		NewLevel(&clock, "core", Core, capA, 1, 0),
		NewLevel(&clock, "drum", Drum, capB, 10, 1),
	}
	want := [2]*refLevel{
		{name: "core", clock: &refClock, words: make([]uint64, capA), access: 1},
		{name: "drum", clock: &refClock, words: make([]uint64, capB), access: 10, word: 1},
	}
	for i, op := range ops {
		var gotErr, wantErr error
		var gotV, wantV uint64
		switch op.kind {
		case 0:
			gotV, gotErr = got[op.src].ReadWord(op.srcAddr)
			wantV, wantErr = want[op.src].ReadWord(op.srcAddr)
		case 1:
			gotErr = got[op.src].WriteWord(op.srcAddr, op.v)
			wantErr = want[op.src].WriteWord(op.srcAddr, op.v)
		case 2:
			gotErr = Transfer(got[op.src], op.srcAddr, got[op.dst], op.dstAddr, op.n)
			wantErr = refTransfer(want[op.src], op.srcAddr, want[op.dst], op.dstAddr, op.n, true)
		case 3:
			gotErr = TransferOverlapped(got[op.src], op.srcAddr, got[op.dst], op.dstAddr, op.n)
			wantErr = refTransfer(want[op.src], op.srcAddr, want[op.dst], op.dstAddr, op.n, false)
		case 4:
			gotErr = MoveWithin(got[op.src], op.srcAddr, op.dstAddr, op.n)
			wantErr = refMoveWithin(want[op.src], op.srcAddr, op.dstAddr, op.n)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotV != wantV {
			t.Fatalf("op %d %+v: got (%d, %v), reference (%d, %v)", i, op, gotV, gotErr, wantV, wantErr)
		}
		if clock.Now() != refClock.Now() {
			t.Fatalf("op %d %+v: clock %d, reference %d", i, op, clock.Now(), refClock.Now())
		}
		for j := range got {
			if g, w := got[j].Stats(), want[j].stats(); g != w {
				t.Fatalf("op %d %+v: level %d stats %+v, reference %+v", i, op, j, g, w)
			}
			for a, w := range want[j].words {
				if g, err := got[j].PeekWord(a); err != nil || g != w {
					t.Fatalf("op %d %+v: level %d word %d = %d (%v), reference %d", i, op, j, a, g, err, w)
				}
			}
		}
	}
}

// levelSeeds are random inputs for the seed corpus: enough records to
// write, copy and overwrite across several chunks of both levels.
func levelSeeds() [][]byte {
	rng := sim.NewRNG(13)
	seeds := make([][]byte, 24)
	for i := range seeds {
		b := make([]byte, 4+8*48)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		seeds[i] = b
	}
	return seeds
}

func FuzzLevel(f *testing.F) {
	for _, s := range levelSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkLevelLockstep)
}

// TestMoveWithinOverlapAcrossChunks pins both directions of an
// overlapping same-level move whose spans straddle chunk boundaries.
func TestMoveWithinOverlapAcrossChunks(t *testing.T) {
	for _, tc := range []struct{ src, dst, n int }{
		{chunkWords - 7, chunkWords + 5, chunkWords + 20},
		{chunkWords + 5, chunkWords - 7, chunkWords + 20},
		{3, 4, 2*chunkWords + 1},
		{4, 3, 2*chunkWords + 1},
	} {
		var c sim.Clock
		l := NewLevel(&c, "core", Core, 4*chunkWords-3, 1, 0)
		want := make([]uint64, l.Capacity())
		for a := 0; a < 3*chunkWords; a += 2 { // leaves every odd word unwritten
			_ = l.WriteWord(a, uint64(a)+1)
			want[a] = uint64(a) + 1
		}
		if err := MoveWithin(l, tc.src, tc.dst, tc.n); err != nil {
			t.Fatal(err)
		}
		copy(want[tc.dst:tc.dst+tc.n], want[tc.src:tc.src+tc.n])
		for a, w := range want {
			if g, _ := l.PeekWord(a); g != w {
				t.Fatalf("%+v: word %d = %d, want %d", tc, a, g, w)
			}
		}
	}
}

// TestUnwrittenCopyStaysUnallocated checks that copying never-written
// words allocates no chunk, and that copying them over written words
// clears those words.
func TestUnwrittenCopyStaysUnallocated(t *testing.T) {
	var c sim.Clock
	drum := NewLevel(&c, "drum", Drum, 8*chunkWords, 10, 1)
	core := NewLevel(&c, "core", Core, 4*chunkWords, 1, 0)
	if err := Transfer(drum, chunkWords, core, 0, 2*chunkWords); err != nil {
		t.Fatal(err)
	}
	if len(core.chunks) != 0 {
		t.Fatalf("copy of unwritten words materialised %d directory slots", len(core.chunks))
	}
	_ = core.WriteWord(chunkWords+1, 9)
	if err := Transfer(drum, 0, core, chunkWords, 4); err != nil {
		t.Fatal(err)
	}
	if v, _ := core.PeekWord(chunkWords + 1); v != 0 {
		t.Fatalf("copy of unwritten words left %d in a written chunk, want 0", v)
	}
}

// TestNewLevelAllocatesLazily checks that building a large level costs
// only its header: a 4M-word (32 MiB) level must allocate under 64 KiB.
func TestNewLevelAllocatesLazily(t *testing.T) {
	const runs = 8
	var c sim.Clock
	levels := make([]*Level, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range levels {
		levels[i] = NewLevel(&c, "disk", Disk, 4_194_304, 100, 1)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("NewLevel(4194304 words) allocates %d bytes, want < 64 KiB", per)
	}
	runtime.KeepAlive(levels)
}
