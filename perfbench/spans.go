package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own call into the layer. Spans of one operation
// (a battery, a machine round, a served request) share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for an operation's root span
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // sweep, cell key, machine/kind
	Start  int64  `json:"start_ns"`        // from the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced operations run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet. It returns 0 on a nil tracer.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores the finished span id.
func (t *tracer) record(id, parent, op int64, name, label string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Label: label,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap (cells
// of one sweep run in parallel), so the covered part is the length of
// the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals
// within the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// selfByName sums self time per span name per operation and returns,
// for each name, the median over operations in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	perOp := make(map[string]map[int64]float64)
	for _, s := range spans {
		m := perOp[s.Name]
		if m == nil {
			m = make(map[int64]float64)
			perOp[s.Name] = m
		}
		m[s.Op] += self[s.ID].Seconds()
	}
	out := make(map[string]float64, len(perOp))
	for name, m := range perOp {
		vals := make([]float64, 0, len(m))
		for _, v := range m {
			vals = append(vals, v)
		}
		out[name] = median(vals)
	}
	return out
}
