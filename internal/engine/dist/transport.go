package dist

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"
)

// DefaultLinkTimeout is how long a link may stay silent — no
// heartbeat, no response — before the dispatcher declares it dead and
// contains the in-flight batch. It is 20× DefaultHeartbeat, so a link
// dies only after many consecutive missed beats, never one slow frame.
const DefaultLinkTimeout = 10 * time.Second

// DefaultDialTimeout bounds connecting to a worker — the TCP dial or
// the child spawn, plus the handshake; an unreachable endpoint or a
// child that never answers fails fast and charges the slot's budget
// instead of stalling the sweep.
const DefaultDialTimeout = 5 * time.Second

// link is a pool slot's one connection to one worker: a local child
// over the pipe pair it inherited as fds 3 and 4, or a remote
// serve-worker over TCP. Both run the same protocol, so both fail the
// same way — a dead peer is EOF, a stopped or wedged one is silence.
// The worker emits heartbeat frames while a batch executes and the
// read deadline is re-armed before every frame, so silence past the
// timeout retires the link and contains exactly the in-flight batch.
// The slot goroutine owns roundTrip and close; kill is the one
// async-safe method, called by cancellation watchers to force the
// link down mid-round-trip (the owner then sees a transport error and
// contains the batch). Any round-trip error means the link can no
// longer be trusted and must be retired via close.
type link struct {
	conn    net.Conn
	wbuf    *bufio.Writer
	rbuf    *bufio.Reader
	fw      *frameWriter
	fr      *frameReader
	timeout time.Duration

	// cmd is the child a local link owns, nil for a remote one; its
	// stdout and stderr flow through prefixer.
	cmd      *exec.Cmd
	prefixer *PrefixWriter
}

// spawnLocal starts a worker child with the read end of a request pipe
// as its fd 3 and the write end of a response pipe as its fd 4 (the
// `<cmd> worker` subcommand serves them through ServeInherited) and
// returns the link over the other ends, not yet handshaken. The
// child's stdout and stderr both flow through the slot's line
// prefixer, so a stray print is attributed output, never a corrupt
// frame.
func spawnLocal(command string, args, env []string, prefixer *PrefixWriter, timeout time.Duration) (*link, error) {
	// os.Pipe opens every end close-on-exec, so no end leaks into a
	// sibling child spawned concurrently; ExtraFiles still passes the
	// child's ends.
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	respR, respW, err := os.Pipe()
	if err != nil {
		_, _ = reqR.Close(), reqW.Close()
		return nil, err
	}
	cmd := exec.Command(command, args...)
	cmd.Env = env
	cmd.Stdout, cmd.Stderr = prefixer, prefixer
	cmd.ExtraFiles = []*os.File{reqR, respW}
	err = cmd.Start()
	// The child holds its own copies now; keeping ours would mask the
	// child's death, since EOF needs every copy of a write end closed.
	_, _ = reqR.Close(), respW.Close()
	conn := pipeConn{r: respR, w: reqW}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	l := newLink(conn, timeout)
	l.cmd, l.prefixer = cmd, prefixer
	return l, nil
}

// pipeConn is a local link's duplex stream: two pipes, each with the
// deadlines a pollable pipe supports.
type pipeConn struct{ r, w *os.File }

func (c pipeConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c pipeConn) Write(p []byte) (int, error)        { return c.w.Write(p) }
func (c pipeConn) Close() error                       { return errors.Join(c.r.Close(), c.w.Close()) }
func (c pipeConn) LocalAddr() net.Addr                { return nil }
func (c pipeConn) RemoteAddr() net.Addr               { return nil }
func (c pipeConn) SetReadDeadline(t time.Time) error  { return c.r.SetReadDeadline(t) }
func (c pipeConn) SetWriteDeadline(t time.Time) error { return c.w.SetWriteDeadline(t) }
func (c pipeConn) SetDeadline(t time.Time) error {
	return errors.Join(c.r.SetReadDeadline(t), c.w.SetWriteDeadline(t))
}

// newLink wraps conn; timeout is the per-frame silence deadline.
func newLink(conn net.Conn, timeout time.Duration) *link {
	return &link{conn: conn, wbuf: bufio.NewWriter(conn), rbuf: bufio.NewReader(conn), timeout: timeout}
}

// handshake sends the dialer's hello (version check plus auth token)
// and validates the server's ack, within timeout, before any cells
// flow. The persistent request/response codecs start after it, at the
// same stream position on both sides; a reconnect builds a new link
// and therefore fresh codecs.
func (l *link) handshake(token string, timeout time.Duration) error {
	_ = l.conn.SetDeadline(time.Now().Add(timeout))
	defer l.conn.SetDeadline(time.Time{})
	if err := writeFrame(l.wbuf, &hello{Version: protoVersion, Token: token}); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if err := l.wbuf.Flush(); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	var ack helloAck
	if err := readFrame(l.rbuf, &ack); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if !ack.OK {
		return fmt.Errorf("server refused connection: %s", ack.Err)
	}
	if ack.Version != protoVersion {
		return fmt.Errorf("protocol version skew: dialer %d, server %d", protoVersion, ack.Version)
	}
	l.fw = newFrameWriter(l.wbuf)
	l.fr = newFrameReader(l.rbuf)
	return nil
}

// roundTrip ships one request and blocks for its response, consuming
// heartbeat frames along the way.
func (l *link) roundTrip(req *request) (*response, error) {
	_ = l.conn.SetWriteDeadline(time.Now().Add(l.timeout))
	if err := l.fw.writeFrame(req); err != nil {
		return nil, err
	}
	if err := l.wbuf.Flush(); err != nil {
		return nil, err
	}
	_ = l.conn.SetWriteDeadline(time.Time{})
	return awaitResponse(l.fr, req.ID, func() error {
		return l.conn.SetReadDeadline(time.Now().Add(l.timeout))
	})
}

// kill forces the link down: closes the connection and, for a local
// link, kills the child (a stopped child included).
func (l *link) kill() {
	_ = l.conn.Close()
	if l.cmd != nil {
		_ = l.cmd.Process.Kill()
	}
}

// close kills the link and reaps its child.
func (l *link) close() {
	l.kill()
	if l.cmd != nil {
		_ = l.cmd.Wait()
		// Wait has drained the child's output; recover whatever partial
		// line a crashing worker got out before dying, prefixed like
		// every other line, instead of dropping it.
		_ = l.prefixer.Flush()
	}
}

// awaitResponse reads frames until the real response for id arrives,
// consuming heartbeat frames along the way. arm re-arms the link's
// read deadline before each frame — every heartbeat resets the clock,
// so the deadline measures silence, not batch duration, and an
// arbitrarily slow cell on a live link never times out.
func awaitResponse(fr *frameReader, id uint64, arm func() error) (*response, error) {
	for {
		if err := arm(); err != nil {
			return nil, err
		}
		var resp response
		if err := fr.readFrame(&resp); err != nil {
			if isTimeout(err) {
				return nil, fmt.Errorf("dist: link silent past deadline (no heartbeat): %w", err)
			}
			return nil, err
		}
		if resp.ID != id {
			return nil, fmt.Errorf("dist: response %d for request %d", resp.ID, id)
		}
		if resp.Heartbeat {
			continue
		}
		return &resp, nil
	}
}

// isTimeout reports whether err is a network timeout (a read deadline
// firing), possibly wrapped by frame-reading context.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// SplitEndpoints parses a comma-separated -remote flag value
// ("host:port,host:port") into endpoint strings, trimming whitespace
// and dropping empties; it returns nil for an empty flag.
func SplitEndpoints(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}
