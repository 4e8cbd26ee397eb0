package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dsa/internal/experiments"
	"dsa/internal/metrics"
)

// daemon is a `dsasim serve` child process.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process has been waited for
}

// startDaemon starts `dsasim serve` with a fresh cache directory under
// dir and waits until it answers /healthz.
func startDaemon(c config, dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(filepath.Join(c.bin, "dsasim"), "serve",
		"-parallel", strconv.Itoa(c.nproc),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-listen", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-drain", "2s")
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			d.base = "http://" + string(b)
			if resp, err := http.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("dsasim serve exited during start-up")
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dsasim serve did not become healthy")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if it
// outlives it.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

type submitReply struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
}

// outcome is what the client saw of one request. Times are absolute;
// zero means the step was not reached.
type outcome struct {
	sent, submitted, streamStart, firstByte, end time.Time
	status                                       int // first non-2xx status, else 0
	cached                                       bool
	body                                         []byte
	err                                          error
}

func (o *outcome) ok() bool { return o.err == nil && o.status == 0 }

// client is one connection to the daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// do submits one sweep and reads its result to the last byte: the
// stream for a fresh key, or the stored result for a cached one.
func (cl *client) do(ctx context.Context, tenant string, seed uint64) outcome {
	var o outcome
	o.sent = time.Now()
	body, _ := json.Marshal(map[string]interface{}{"experiments": serveExperiments, "seed": seed})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+"/sweeps", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := cl.hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	var sub submitReply
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	o.submitted = time.Now()
	if resp.StatusCode/100 != 2 {
		o.status = resp.StatusCode
		return o
	}
	if err != nil {
		o.err = fmt.Errorf("submit reply: %w", err)
		return o
	}
	o.cached = sub.Cached
	url := cl.base + "/sweeps/" + sub.ID + "/stream"
	if sub.Cached {
		url = cl.base + "/results/" + sub.Key
	}
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	o.streamStart = time.Now()
	resp, err = cl.hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		o.status = resp.StatusCode
		return o
	}
	var buf bytes.Buffer
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 && o.firstByte.IsZero() {
			o.firstByte = time.Now()
		}
		buf.Write(chunk[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			o.err = err
			return o
		}
	}
	o.end = time.Now()
	o.body = buf.Bytes()
	return o
}

// expectedStream is the in-process battery output a served stream must
// match byte for byte.
func expectedStream(ctx context.Context, seed uint64, n int) ([]byte, error) {
	var buf bytes.Buffer
	err := experiments.StreamConfig(ctx, experiments.Config{Parallel: n, Seed: seed},
		func(t *metrics.Table) { buf.WriteString(t.String() + "\n") }, serveExperiments...)
	return buf.Bytes(), err
}

// serveStats is the daemon's GET /stats reply.
type serveStats struct {
	Submitted  int    `json:"submitted"`
	Completed  int    `json:"completed"`
	Failed     int    `json:"failed"`
	CachedHits int    `json:"cached_hits"`
	Rejected   int    `json:"rejected"`
	Store      string `json:"store"`
}

func (d *daemon) stats() (serveStats, error) {
	var st serveStats
	resp, err := http.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// The host reference kernel cannot run between requests without
// competing with the daemon for CPU. So the timed phase is cut into
// segments of serveSegment of the schedule; at each boundary the
// generator lets the segment's requests finish and runs the kernel
// serveRefTicks times, and then goes on with the next segment's due
// times counted from there. Each segment's requests are also corrected
// by that segment's stolen time.
const (
	serveSegment  = 2 * time.Second
	serveRefTicks = 3
)

func runServe(ctx context.Context, c config) (*result, error) {
	r := newResult()
	warm := warmSeeds(c.seed)
	want := map[uint64][]byte{}
	for _, s := range warm {
		b, err := expectedStream(ctx, s, c.nproc)
		if err != nil {
			return nil, err
		}
		want[s] = b
	}

	// Set-up: start the daemon and complete the warm keys, so repeats
	// of them hit the result cache. Repeated; the last daemon is kept.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups []hostTime
	h := newHostRef(c.nproc)
	h.tick()
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		w := openWindow()
		t0 := time.Now()
		var err error
		d, err = startDaemon(c, filepath.Join(c.scratch, "serve"))
		if err != nil {
			return nil, err
		}
		cl := newClient(d.base)
		for _, s := range warm {
			o := cl.do(ctx, "warm", s)
			r.attempted++
			if !o.ok() || !bytes.Equal(o.body, want[s]) {
				r.fail(fmt.Sprintf("setup-%d/warm-%d", i, s), "status %d, err %v, %d bytes", o.status, o.err, len(o.body))
			}
		}
		cl.hc.CloseIdleConnections()
		t := time.Since(t0)
		avail := w.avail()
		h.tick()
		setups = append(setups, hostTime{ms(t), avail})
	}

	sched := serveSchedule(c.seed, serveRate, c.seconds.Seconds())
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	// The queue holds the whole schedule, so the generator never waits
	// on a connection: a request that finds every connection busy
	// waits in the queue, and that wait counts in its latency.
	queue := make(chan request, len(sched))
	outs := make([]outcome, len(sched))
	lags := make([]float64, len(sched))
	epochs := make([]time.Time, len(sched)) // each request's segment's start, less its due offset
	avails := make([]float64, len(sched))   // each request's segment's unstolen share
	var wg, inSegment sync.WaitGroup
	clients := make([]*client, c.nproc)
	for i := range clients {
		clients[i] = newClient(d.base)
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for q := range queue {
				outs[q.Index] = cl.do(ctx, q.Tenant, q.Seed)
				inSegment.Done()
			}
		}(clients[i])
	}
	for i := 0; i < serveRefTicks; i++ {
		h.tick()
	}
	_, cpu0, err := procStat(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(sched); {
		seg := sched[lo].Due / serveSegment
		hi := lo
		for hi < len(sched) && sched[hi].Due/serveSegment == seg {
			hi++
		}
		inSegment.Add(hi - lo)
		w := openWindow()
		epoch := time.Now().Add(-seg * serveSegment)
		for _, q := range sched[lo:hi] {
			time.Sleep(time.Until(epoch.Add(q.Due)))
			lags[q.Index] = ms(time.Since(epoch.Add(q.Due)))
			epochs[q.Index] = epoch
			queue <- q
		}
		inSegment.Wait()
		// Requests overlap, so each is corrected by the stolen share of
		// its whole segment.
		avail := w.avail()
		for i := lo; i < hi; i++ {
			avails[i] = avail
		}
		for i := 0; i < serveRefTicks; i++ {
			h.tick()
		}
		lo = hi
	}
	close(queue)
	wg.Wait()
	// The daemon is idle while the kernel runs, so its CPU time over
	// the timed phase is the requests' alone.
	_, cpu1, err := procStat(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	for _, cl := range clients {
		cl.hc.CloseIdleConnections()
	}

	var lat []hostTime
	var submit, first, stream, fetch []float64
	cached, refused := 0, 0
	var sample []int
	for i, q := range sched {
		o := &outs[i]
		name := fmt.Sprintf("request-%d", i)
		r.attempted++
		switch {
		case o.status == http.StatusTooManyRequests:
			refused++
			r.fail(name, "refused (429)")
			continue
		case !o.ok():
			r.fail(name, "status %d, err %v", o.status, o.err)
			continue
		case o.cached != q.Repeat:
			r.fail(name, "cached=%t for a %s key", o.cached, map[bool]string{true: "repeated", false: "fresh"}[q.Repeat])
		case bytes.Contains(o.body, []byte("FAILED")):
			r.fail(name, "stream reports a failure")
		case q.Repeat && !bytes.Equal(o.body, want[q.Seed]):
			r.fail(name, "cached result differs from the in-process sweep")
		}
		if o.cached {
			cached++
			fetch = append(fetch, ms(o.end.Sub(o.streamStart)))
		} else {
			first = append(first, ms(o.firstByte.Sub(o.streamStart)))
			stream = append(stream, ms(o.end.Sub(o.streamStart)))
			if len(stream)%4 == 1 {
				sample = append(sample, i)
			}
		}
		submit = append(submit, ms(o.submitted.Sub(o.sent)))
		lat = append(lat, hostTime{ms(dueLatency(epochs[i], q.Due, o.end)), avails[i]})
		if c.traced {
			recordRequest(tr, int64(i+1), epochs[i].Add(q.Due), o)
		}
	}
	// A sample of fresh streams must match the in-process sweep; it is
	// checked after the timed phase so the check does not compete with
	// the daemon for CPU.
	for _, i := range sample {
		b, err := expectedStream(ctx, sched[i].Seed, c.nproc)
		if err != nil || !bytes.Equal(outs[i].body, b) {
			r.fail(fmt.Sprintf("request-%d", i), "stream differs from the in-process sweep for seed %d (%v)", sched[i].Seed, err)
		}
	}

	st, err := d.stats()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	r.set("peak_rss_mb", rss)
	p50, cpuPerOp := opStats(r, lat, []float64{ms(cpu1-cpu0) / float64(len(sched))}, setups, h)
	r.show("served_p50_ms", p50, "ms")
	r.show("served_tail_ms", r.values["op.tail_ms"], "ms (the op_tail_ms percentile)")
	r.show("serve_rss_mb", rss, "MB")
	r.note("daemon CPU %.4g ms per request (corrected); %d requests at %g/s over %d connections, %d cached, %d fresh streams checked",
		cpuPerOp, len(sched), serveRate, c.nproc, cached, len(sample))
	r.set("serve.submit_ms", median(submit))
	r.set("serve.first_byte_ms", median(first))
	r.set("serve.stream_ms", median(stream))
	r.set("serve.fetch_ms", median(fetch))
	r.set("serve.refused", float64(refused))
	r.set("serve.cached_share", float64(cached)/float64(len(sched)))
	r.set("serve.generator_lag_ms", maxOf(lags))
	r.set("serve.submitted", float64(st.Submitted))
	r.set("serve.completed", float64(st.Completed))
	r.set("serve.failed", float64(st.Failed))
	r.set("serve.cached_hits", float64(st.CachedHits))
	r.set("serve.rejected", float64(st.Rejected))
	r.note("generator ran at most %.3g ms late; daemon /stats: %+v", maxOf(lags), st)
	var gen, hits, disk float64
	if _, err := fmt.Sscanf(st.Store, "%g generated, %g hits, %g disk hits", &gen, &hits, &disk); err != nil {
		return nil, fmt.Errorf("parsing store summary %q: %w", st.Store, err)
	}
	setCatalog(r, gen, hits, disk)
	// Spans are built from the client's timestamps after the timed
	// phase, so tracing does not change how a request runs and serve
	// reports no tracing overhead.
	if c.traced {
		spanLayers(r, c, tr)
	}
	return r, nil
}

// recordRequest turns one request's client-side timestamps into spans:
// the request from its due time to its last byte, and the submit,
// first-byte and stream (or fetch) steps inside it.
func recordRequest(tr *tracer, op int64, due time.Time, o *outcome) {
	id := tr.id()
	tr.record(tr.id(), id, op, "submit", "", o.sent, o.submitted)
	if o.cached {
		tr.record(tr.id(), id, op, "fetch", "", o.streamStart, o.end)
	} else {
		tr.record(tr.id(), id, op, "first_byte", "", o.streamStart, o.firstByte)
		tr.record(tr.id(), id, op, "stream", "", o.firstByte, o.end)
	}
	tr.record(id, 0, op, "request", strings.Join(serveExperiments, "+"), due, o.end)
}
