package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"dsa/internal/cliflags"
	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/metrics"
)

// StreamFlags is the battery body of cmd/dsafig and `dsasim run`: it
// runs the named experiments (all of them when names is empty) under
// the Config the shared sweep flags describe and prints each table to
// stdout as its prefix of the battery completes. It owns the
// invocation's resources and stderr summaries, each line prefixed with
// sw.Prog:
//
//   - one battery-scoped store from -cache-dir, its traffic summarized
//     on the way out under -cache-dir or -progress;
//   - with -cache-dir, the sweep-cost manifest latency.json beside the
//     cache, which -battery-parallel runs schedule longest-first from;
//   - the -workers/-remote dist pool, its traffic summarized and its
//     workers shut down on the way out;
//   - -progress lines: per sweep for a serial battery, the aggregated
//     battery view under -battery-parallel, where interleaved
//     per-sweep lines would be unreadable.
func StreamFlags(sw *cliflags.Sweep, names ...string) error {
	c := Config{Parallel: sw.Parallel, BatteryParallel: sw.BatteryParallel, Seed: sw.Seed, Store: sw.Store()}
	defer func() {
		if sw.CacheDir != "" || sw.Progress {
			fmt.Fprintf(os.Stderr, "%s: store: %s\n", sw.Prog, c.Store.Stats().Summary())
		}
	}()
	if sw.CacheDir != "" {
		c.Costs = battery.LoadCosts(filepath.Join(sw.CacheDir, "latency.json"))
		defer func() {
			if err := c.Costs.Save(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: costs: %v\n", sw.Prog, err)
			}
		}()
	}
	pool, err := sw.Pool()
	if err != nil {
		return err
	}
	if pool != nil {
		defer pool.Close()
		defer func() {
			fmt.Fprintf(os.Stderr, "%s: dist: %s\n", sw.Prog, pool.Stats().Summary(sw.PoolSlots()))
		}()
		c.Executor = pool
	}
	if sw.Progress {
		if sw.BatteryParallel > 1 {
			c.OnBatteryProgress = func(p battery.Progress) {
				fmt.Fprintf(os.Stderr, "%s: battery: %s\n", sw.Prog, p)
			}
		} else {
			c.OnProgress = func(sweep string, p engine.Progress) {
				fmt.Fprintf(os.Stderr, "%s: %s: %s\n", sw.Prog, sweep, p)
			}
		}
	}
	return StreamConfig(context.Background(), c, func(t *metrics.Table) { fmt.Println(t) }, names...)
}
