// Package paging is the uniform-unit storage allocation engine of the
// paper: working storage is divided into page frames, a mapping device
// makes page addresses independent of the frames holding them, and
// references to absent pages trap and trigger fetches ("demand
// paging uses the address mapping device to deflect reference to a
// page which is not currently in one of the page frames").
//
// The engine composes the substrates built elsewhere: a
// mapping.PageTable for translation and sensors, a replace.Policy for
// victims, a fetch.Strategy for anticipation, an optional
// predict.AdviceSet for directives, real store.Level transfers for
// timing, and metrics.SpaceTime for the Figure 3 accounting.
package paging

import (
	"errors"
	"fmt"

	"dsa/internal/addr"
	"dsa/internal/fetch"
	"dsa/internal/mapping"
	"dsa/internal/metrics"
	"dsa/internal/predict"
	"dsa/internal/replace"
	"dsa/internal/sim"
	"dsa/internal/store"
	"dsa/internal/trace"
)

// ErrAllPinned reports that every frame holds a keep-resident page so
// no victim exists.
var ErrAllPinned = errors.New("paging: all resident pages are keep-resident")

// Config assembles a Pager.
type Config struct {
	// Clock is the shared simulation clock.
	Clock *sim.Clock
	// Working is the core level holding page frames.
	Working *store.Level
	// Backing holds the full name-space image (drum or disk).
	Backing *store.Level
	// PageSize is the uniform unit of allocation, in words.
	PageSize uint64
	// Frames is the number of page frames granted to this program.
	Frames int
	// Extent is the program's linear name-space extent in words.
	Extent uint64
	// Policy selects replacement victims.
	Policy replace.Policy
	// Fetch selects anticipatory fetches; nil means pure demand.
	Fetch fetch.Strategy
	// Advice, when non-nil, accepts predictive directives from the
	// trace and influences eviction and prefetch.
	Advice *predict.AdviceSet
	// LookupCost is the page-table access cost per translation.
	LookupCost sim.Time
	// CPUCost is extra compute charged per reference beyond the storage
	// access itself.
	CPUCost sim.Time
	// FrameBase is the working-storage word offset of frame 0, letting
	// several pagers (multiprogramming) share one core level.
	FrameBase int
	// OverlapPrefetch makes anticipatory transfers free of clock time
	// (overlapped with execution); demand transfers always block.
	OverlapPrefetch bool
	// ReserveFrames keeps this many frames vacant at all times by
	// evicting ahead of demand, off the critical path — the ATLAS
	// policy: the replacement strategy "is used to ensure that one
	// page frame is kept vacant, ready for the next page demand".
	// Dirty write-backs then overlap execution instead of extending
	// fault latency. 0 disables the reserve.
	ReserveFrames int
}

// Stats counts pager events.
type Stats struct {
	Refs             int64
	Faults           int64
	PageIns          int64
	PageOuts         int64
	Writebacks       int64
	Prefetches       int64
	AdviceEvictions  int64
	ReserveEvictions int64
}

// Result is the outcome of a Run.
type Result struct {
	Stats     Stats
	SpaceTime metrics.SpaceTimeReport
	Elapsed   sim.Time
	// FaultRate is faults per access.
	FaultRate float64
}

// Pager is a demand-paging storage allocator for one program.
type Pager struct {
	cfg   Config
	table *mapping.PageTable
	st    *metrics.SpaceTime
	// framePage holds the page in each frame, noPage for a free one, so
	// scans of the resident set are bounded by the frames. The page
	// table's Present bits answer per-page residency.
	framePage []uint64
	free      []int
	maxPage   uint64
	stats     Stats
	// residentFn is p.isResident bound once, so handing it to the fetch
	// strategy on every fault does not allocate a closure.
	residentFn func(uint64) bool
	// skipped is scratch for chooseVictimWith: pages sidelined while
	// hunting for an evictable victim, reinserted before returning.
	skipped []replace.PageID
}

// New validates the configuration and builds a pager. The backing level
// must hold the whole extent; the working level must hold all frames.
func New(cfg Config) (*Pager, error) {
	if cfg.Clock == nil || cfg.Working == nil || cfg.Backing == nil {
		return nil, errors.New("paging: clock, working and backing are required")
	}
	if cfg.PageSize == 0 {
		return nil, errors.New("paging: zero page size")
	}
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("paging: non-positive frame count %d", cfg.Frames)
	}
	if cfg.ReserveFrames < 0 || cfg.ReserveFrames >= cfg.Frames {
		return nil, fmt.Errorf("paging: reserve %d out of [0, %d)", cfg.ReserveFrames, cfg.Frames)
	}
	if cfg.Extent == 0 {
		return nil, errors.New("paging: zero extent")
	}
	if cfg.Policy == nil {
		return nil, errors.New("paging: nil replacement policy")
	}
	if cfg.Fetch == nil {
		cfg.Fetch = fetch.Demand{}
	}
	if need := cfg.FrameBase + cfg.Frames*int(cfg.PageSize); need > cfg.Working.Capacity() {
		return nil, fmt.Errorf("paging: %d frames of %d words exceed working storage %d",
			cfg.Frames, cfg.PageSize, cfg.Working.Capacity())
	}
	if cfg.Extent > uint64(cfg.Backing.Capacity()) {
		return nil, fmt.Errorf("paging: extent %d exceeds backing storage %d",
			cfg.Extent, cfg.Backing.Capacity())
	}
	pages := int((cfg.Extent + cfg.PageSize - 1) / cfg.PageSize)
	p := &Pager{
		cfg:       cfg,
		table:     mapping.NewPageTable(cfg.Clock, pages, cfg.PageSize, cfg.LookupCost),
		st:        metrics.NewSpaceTime(cfg.Clock),
		framePage: make([]uint64, cfg.Frames),
		maxPage:   uint64(pages - 1),
	}
	p.residentFn = p.isResident
	for f := cfg.Frames - 1; f >= 0; f-- {
		p.free = append(p.free, f)
		p.framePage[f] = noPage
	}
	return p, nil
}

// Table exposes the page table (sensors, stats) to experiments.
func (p *Pager) Table() *mapping.PageTable { return p.table }

// Extent reports the linear name-space extent in words.
func (p *Pager) Extent() uint64 { return p.cfg.Extent }

// SpaceTime exposes the space-time accumulator.
func (p *Pager) SpaceTime() *metrics.SpaceTime { return p.st }

// Stats returns the counters so far.
func (p *Pager) Stats() Stats { return p.stats }

// ResidentPages reports how many pages are resident.
func (p *Pager) ResidentPages() int { return p.cfg.Frames - len(p.free) }

// frameAddr converts a frame number to a working-storage word address.
func (p *Pager) frameAddr(frame int) int {
	return p.cfg.FrameBase + frame*int(p.cfg.PageSize)
}

// backingAddr is the backing-store address of a page.
func (p *Pager) backingAddr(page uint64) int {
	return int(page * p.cfg.PageSize)
}

// Read references name for reading and returns the stored word.
func (p *Pager) Read(name addr.Name) (uint64, error) {
	a, err := p.access(name, false)
	if err != nil {
		return 0, err
	}
	return p.cfg.Working.ReadWord(int(a))
}

// Write references name for writing, storing v.
func (p *Pager) Write(name addr.Name, v uint64) error {
	a, err := p.access(name, true)
	if err != nil {
		return err
	}
	return p.cfg.Working.WriteWord(int(a), v)
}

// Touch references name without transferring data to the caller; the
// working-storage access is still performed and charged.
func (p *Pager) Touch(name addr.Name, write bool) error {
	if write {
		a, err := p.access(name, true)
		if err != nil {
			return err
		}
		v, err := p.cfg.Working.ReadWord(int(a))
		if err != nil {
			return err
		}
		return p.cfg.Working.WriteWord(int(a), v)
	}
	_, err := p.Read(name)
	return err
}

// access translates a name, resolving a page fault if necessary, and
// returns the absolute working-storage address.
func (p *Pager) access(name addr.Name, write bool) (addr.Address, error) {
	p.stats.Refs++
	if p.cfg.CPUCost > 0 {
		p.cfg.Clock.Advance(p.cfg.CPUCost)
	}
	page := uint64(name) / p.cfg.PageSize
	if p.cfg.Advice != nil {
		p.cfg.Advice.Touch(page)
	}
	a, err := p.table.Translate(name, write)
	if err != nil {
		// Translate returns the fault unwrapped; a type assertion avoids
		// the errors.As escape on the per-fault path.
		pf, ok := err.(*mapping.PageFault)
		if !ok {
			return 0, err
		}
		if ferr := p.fault(pf.Page, write); ferr != nil {
			return 0, ferr
		}
		a, err = p.table.Translate(name, write)
		if err != nil {
			return 0, fmt.Errorf("paging: fault resolution failed: %w", err)
		}
		// The faulting reference is accounted by Insert; Touch is only
		// for hits (see the replace.Policy contract).
		return addr.Address(int(a) + p.cfg.FrameBase), nil
	}
	p.cfg.Policy.Touch(replace.PageID(page), p.cfg.Clock.Now(), write)
	return addr.Address(int(a) + p.cfg.FrameBase), nil
}

// fault brings in the demanded page (blocking), then any anticipatory
// pages the fetch strategy selects, then replenishes the vacant-frame
// reserve off the critical path.
func (p *Pager) fault(page uint64, _ bool) error {
	p.stats.Faults++
	p.st.BeginWait()
	err := p.loadPage(page, true)
	p.st.EndWait()
	if err != nil {
		return err
	}
	for _, extra := range p.cfg.Fetch.Extra(page, p.residentFn, p.maxPage) {
		if err := p.loadPage(extra, false); err != nil {
			if errors.Is(err, ErrAllPinned) {
				break // anticipation is optional; stop quietly
			}
			return err
		}
		p.stats.Prefetches++
	}
	return p.replenishReserve(page)
}

// replenishReserve evicts ahead of demand until ReserveFrames frames
// are vacant. Write-backs here are overlapped: the program is running,
// not waiting, which is the entire point of the ATLAS vacant frame.
// The page just demanded is never chosen — evicting it would undo the
// fault that was just serviced.
func (p *Pager) replenishReserve(justLoaded uint64) error {
	for len(p.free) < p.cfg.ReserveFrames && p.ResidentPages() > 1 {
		victim, err := p.chooseVictimExcluding(justLoaded)
		if err != nil {
			if errors.Is(err, ErrAllPinned) {
				return nil // reserve is best-effort under pinning
			}
			return err
		}
		frame, err := p.evict(victim, true)
		if err != nil {
			return err
		}
		p.free = append(p.free, frame)
		p.stats.ReserveEvictions++
	}
	return nil
}

// noPage marks a free frame in framePage.
const noPage = ^uint64(0)

func (p *Pager) isResident(page uint64) bool {
	if page > p.maxPage {
		return false
	}
	e, _ := p.table.Entry(page)
	return e.Present
}

// loadPage makes page resident. Demand loads block (charge the clock);
// anticipatory loads overlap when configured.
func (p *Pager) loadPage(page uint64, demand bool) error {
	if p.isResident(page) {
		return nil
	}
	frame, err := p.takeFrame()
	if err != nil {
		return err
	}
	words := p.pageWords(page)
	if demand || !p.cfg.OverlapPrefetch {
		err = store.Transfer(p.cfg.Backing, p.backingAddr(page), p.cfg.Working, p.frameAddr(frame), words)
	} else {
		err = store.TransferOverlapped(p.cfg.Backing, p.backingAddr(page), p.cfg.Working, p.frameAddr(frame), words)
	}
	if err != nil {
		return err
	}
	if err := p.table.SetEntry(page, frame); err != nil {
		return err
	}
	p.framePage[frame] = page
	p.cfg.Policy.Insert(replace.PageID(page), p.cfg.Clock.Now())
	p.st.AddResident(int64(words))
	p.stats.PageIns++
	return nil
}

// pageWords is the page's true extent (the last page may be short).
func (p *Pager) pageWords(page uint64) int {
	start := page * p.cfg.PageSize
	end := start + p.cfg.PageSize
	if end > p.cfg.Extent {
		end = p.cfg.Extent
	}
	return int(end - start)
}

// takeFrame returns a free frame, evicting a victim if necessary.
func (p *Pager) takeFrame() (int, error) {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f, nil
	}
	victim, err := p.chooseVictim()
	if err != nil {
		return 0, err
	}
	return p.evict(victim, false)
}

// chooseVictim prefers pages advised as not needed, then defers to the
// replacement policy, skipping keep-resident pages.
func (p *Pager) chooseVictim() (uint64, error) {
	return p.chooseVictimWith(nil)
}

// chooseVictimExcluding is chooseVictim with one page off limits.
func (p *Pager) chooseVictimExcluding(exclude uint64) (uint64, error) {
	return p.chooseVictimWith(&exclude)
}

func (p *Pager) chooseVictimWith(exclude *uint64) (uint64, error) {
	excluded := func(page uint64) bool { return exclude != nil && page == *exclude }
	if a := p.cfg.Advice; a != nil {
		var best uint64
		found := false
		for _, page := range p.framePage {
			if page != noPage && a.WontNeed(page) && !a.Keep(page) && !excluded(page) && (!found || page < best) {
				best = page
				found = true
			}
		}
		if found {
			return best, nil
		}
	}
	p.skipped = p.skipped[:0]
	defer func() {
		now := p.cfg.Clock.Now()
		for _, id := range p.skipped {
			p.cfg.Policy.Insert(id, now)
		}
	}()
	for i := 0; i <= p.ResidentPages(); i++ {
		v, err := p.cfg.Policy.Victim(p.cfg.Clock.Now())
		if err != nil {
			if errors.Is(err, replace.ErrEmpty) && len(p.skipped) > 0 {
				return 0, ErrAllPinned
			}
			return 0, err
		}
		page := uint64(v)
		pinned := p.cfg.Advice != nil && p.cfg.Advice.Keep(page)
		if pinned || excluded(page) {
			// Sideline it so the policy proposes another, then restore
			// it. Ordering loss is harmless: pinned pages are never
			// evicted, and the excluded page was referenced just now.
			p.cfg.Policy.Remove(v)
			p.skipped = append(p.skipped, v)
			continue
		}
		return page, nil
	}
	return 0, ErrAllPinned
}

// evict removes page from working storage, writing it back if the
// modified sensor is set. Overlapped evictions (advice-driven) do not
// block the program.
func (p *Pager) evict(page uint64, overlapped bool) (int, error) {
	entry, err := p.table.Invalidate(page)
	if err != nil {
		return 0, err
	}
	if !entry.Present {
		return 0, fmt.Errorf("paging: evicting non-resident page %d", page)
	}
	words := p.pageWords(page)
	if entry.Modified {
		if overlapped {
			err = store.TransferOverlapped(p.cfg.Working, p.frameAddr(entry.Frame), p.cfg.Backing, p.backingAddr(page), words)
		} else {
			err = store.Transfer(p.cfg.Working, p.frameAddr(entry.Frame), p.cfg.Backing, p.backingAddr(page), words)
		}
		if err != nil {
			return 0, err
		}
		p.stats.Writebacks++
	}
	p.framePage[entry.Frame] = noPage
	p.cfg.Policy.Remove(replace.PageID(page))
	p.st.AddResident(-int64(words))
	p.stats.PageOuts++
	return entry.Frame, nil
}

// applyAdvice handles an Advise event: record it, proactively release
// wont-need pages (overlapped, "at the convenience of the system"),
// and let the fetch strategy act on will-need marks immediately.
func (p *Pager) applyAdvice(r trace.Ref) error {
	if p.cfg.Advice == nil {
		return nil
	}
	p.cfg.Advice.Apply(r)
	if r.Advice == trace.WontNeed {
		span := r.Span
		if span == 0 {
			span = 1
		}
		first := r.Name / p.cfg.PageSize
		last := (r.Name + span - 1) / p.cfg.PageSize
		for page := first; page <= last && page <= p.maxPage; page++ {
			if p.isResident(page) && !p.cfg.Advice.Keep(page) {
				frame, err := p.evict(page, true)
				if err != nil {
					return err
				}
				p.free = append(p.free, frame)
				p.stats.AdviceEvictions++
			}
		}
	}
	page := r.Name / p.cfg.PageSize
	for _, extra := range p.cfg.Fetch.Extra(page, p.residentFn, p.maxPage) {
		if err := p.loadPage(extra, false); err != nil {
			if errors.Is(err, ErrAllPinned) {
				return nil
			}
			return err
		}
		p.stats.Prefetches++
	}
	return nil
}

// Run replays a trace through the pager and reports the outcome.
func (p *Pager) Run(tr trace.Trace) (Result, error) {
	start := p.cfg.Clock.Now()
	for i, r := range tr {
		var err error
		switch r.Op {
		case trace.Advise:
			err = p.applyAdvice(r)
		case trace.Write:
			err = p.Touch(addr.Name(r.Name), true)
		default:
			err = p.Touch(addr.Name(r.Name), false)
		}
		if err != nil {
			return Result{}, fmt.Errorf("paging: trace event %d: %w", i, err)
		}
	}
	res := Result{
		Stats:     p.stats,
		SpaceTime: p.st.Snapshot(),
		Elapsed:   p.cfg.Clock.Now() - start,
	}
	if res.Stats.Refs > 0 {
		res.FaultRate = float64(res.Stats.Faults) / float64(res.Stats.Refs)
	}
	return res, nil
}
