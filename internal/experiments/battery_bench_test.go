package experiments

import (
	"fmt"
	"testing"
)

// BenchmarkBatterySerialVsParallel measures the battery scheduler's
// win: the same trace-heavy slice of the battery run serially
// (battery-parallel=1, the historical serial shape) versus with whole
// sweeps overlapped over one shared executor. Serial sweeps leave the
// machine idle during every sweep's single-threaded tail (generation,
// aggregation, small cell counts below the pool width); the scheduler
// fills those gaps with other sweeps' cells. `make bench` runs one
// iteration of this alongside the catalog and dist benchmarks, so the
// benchstat CI job tracks the scheduler's win per PR.
func BenchmarkBatterySerialVsParallel(b *testing.B) {
	names := []string{"t1", "t2", "t3", "fig3", "t5", "t8b", "a2", "a6"}
	for _, bp := range []int{1, 4} {
		b.Run(fmt.Sprintf("battery-parallel=%d", bp), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runTables(Config{BatteryParallel: bp}, names...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
