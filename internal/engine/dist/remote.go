package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"dsa/internal/workload/catalog"
)

// DefaultHandshakeTimeout bounds the hello/helloAck exchange on a
// freshly accepted connection, so a port-scanner or half-open dial
// cannot pin a server goroutine.
const DefaultHandshakeTimeout = 10 * time.Second

// ServeOptions configures the worker side of the protocol: Serve's
// accepted TCP connections and a local child's inherited pipe pair
// (ServeInherited) alike.
type ServeOptions struct {
	// Catalog is the worker's per-process workload catalog, shared
	// across every cell, sweep and connection it serves (one
	// serve-worker warms one cache no matter how many dispatchers
	// connect). Nil means a fresh in-memory catalog; the CLIs pass a
	// disk-backed store here when run with -cache-dir, so workers
	// replay workloads across processes and runs.
	Catalog *catalog.Catalog
	// HeartbeatInterval is how often the worker emits heartbeat frames
	// while a batch is executing — the application-level liveness
	// signal that lets the dispatcher distinguish a slow cell (beats
	// keep arriving) from a dead link (silence). <= 0 means
	// DefaultHeartbeat. Heartbeats are consumed by the dispatcher's
	// transport and never change output bytes.
	HeartbeatInterval time.Duration
	// AuthToken, when nonempty, must match each dialer's hello token;
	// mismatches are refused at the handshake before any cells flow.
	AuthToken string
	// Stderr receives per-connection lifecycle lines, each prefixed
	// with the peer address. Nil means os.Stderr.
	Stderr io.Writer
}

// Serve accepts connections on ln and runs the worker protocol on each
// — one protocol loop per accepted connection, all sharing one
// per-process workload catalog. Each connection is handshaken
// (protocol version, auth token) under a deadline before any cells
// flow. A connection failing mid-batch costs only itself: the loop's
// error retires that connection while the others keep serving. Serve
// returns nil when the listener is closed, after closing every live
// connection and waiting for its goroutines.
func Serve(ln net.Listener, o ServeOptions) error {
	if o.Catalog == nil {
		o.Catalog = catalog.New()
	}
	stderr := o.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = map[net.Conn]struct{}{}
	)
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed = shutdown: take every live connection down
			// with it so in-flight batches unblock and goroutines drain.
			mu.Lock()
			for c := range conns {
				_ = c.Close()
			}
			mu.Unlock()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() {
				_ = conn.Close()
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
			serveAccepted(conn, o, Prefixed(stderr, fmt.Sprintf("serve-worker[%s]: ", conn.RemoteAddr())))
		}(conn)
	}
}

// ServeInherited is the body of the `<cmd> worker` subcommand a Pool
// spawns: it serves the worker protocol on the pipes the pool passed
// as fds 3 (requests) and 4 (responses) exactly as Serve serves an
// accepted connection — handshake, heartbeats, one response frame per
// batch — until the dispatcher disconnects. The pipes arrive blocking,
// so no frame pays a netpoller round and the deadlines are no-ops
// here. The child needs none: the dispatcher's own deadline kills it,
// and the dispatcher exiting closes the pipes. It logs no lifecycle
// lines: the dispatcher reports the link's retirement itself, and
// whatever the child prints reaches the dispatcher's stderr prefixed
// with its slot.
func ServeInherited(o ServeOptions) error {
	conn := pipeConn{r: os.NewFile(3, "dist-requests"), w: os.NewFile(4, "dist-responses")}
	for _, f := range []*os.File{conn.r, conn.w} {
		if fi, err := f.Stat(); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
			return fmt.Errorf("dist: fds 3 and 4 are not a worker link (is this process a -workers child?)")
		}
	}
	defer conn.Close()
	serveAccepted(conn, o, io.Discard)
	return nil
}

// serveAccepted handshakes one connection under
// DefaultHandshakeTimeout and, if accepted, runs the worker protocol
// loop on it until the dialer disconnects, logging lifecycle lines
// to lg.
func serveAccepted(conn net.Conn, o ServeOptions, lg io.Writer) {
	br := bufio.NewReader(conn)
	// Every write arms a fresh write deadline, so a dialer that stalls
	// without closing (reads nothing, connection open) cannot pin this
	// goroutine once the kernel buffer fills — the heartbeat write
	// errors and the loop retires the connection.
	bw := bufio.NewWriter(deadlineWriter{conn: conn, d: DefaultLinkTimeout})

	_ = conn.SetDeadline(time.Now().Add(DefaultHandshakeTimeout))
	var h hello
	if err := readFrame(br, &h); err != nil {
		fmt.Fprintf(lg, "handshake failed: %v\n", err)
		return
	}
	ack := helloAck{OK: true, Version: protoVersion}
	switch {
	case h.Version != protoVersion:
		ack = helloAck{Err: fmt.Sprintf("protocol version skew: dialer %d, server %d", h.Version, protoVersion), Version: protoVersion}
	case o.AuthToken != "" && h.Token != o.AuthToken:
		ack = helloAck{Err: "bad auth token", Version: protoVersion}
	}
	err := writeFrame(bw, &ack)
	if err == nil {
		err = bw.Flush()
	}
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		fmt.Fprintf(lg, "handshake failed: %v\n", err)
		return
	}
	if !ack.OK {
		fmt.Fprintf(lg, "refused: %s\n", ack.Err)
		return
	}
	fmt.Fprintf(lg, "connected\n")
	if err := serveConn(br, bw, o); err != nil {
		fmt.Fprintf(lg, "connection lost: %v\n", err)
		return
	}
	fmt.Fprintf(lg, "disconnected\n")
}

// deadlineWriter arms a write deadline before every Write, bounding
// how long any single protocol write (heartbeat or response) may block
// on an unresponsive peer.
type deadlineWriter struct {
	conn net.Conn
	d    time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.d))
	return w.conn.Write(p)
}

// ListenAndServe binds addr (host:port; port 0 picks a free one),
// announces the bound address on stderr, optionally publishes it to
// addrFile (written atomically via rename, so a watcher never reads a
// partial address), and serves until the listener is closed. This is
// the body of the CLIs' serve-worker subcommand.
func ListenAndServe(addr, addrFile string, o ServeOptions) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	stderr := o.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	fmt.Fprintf(stderr, "dist: serve-worker listening on %s\n", ln.Addr())
	if addrFile != "" {
		tmp := addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			_ = ln.Close()
			return err
		}
		if err := os.Rename(tmp, addrFile); err != nil {
			_ = ln.Close()
			return err
		}
	}
	return Serve(ln, o)
}
