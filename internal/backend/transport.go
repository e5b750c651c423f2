package backend

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"
)

// A Transport establishes the byte stream a worker session runs over. It
// owns where the worker lives (a child process, a TCP peer) and how its
// lifecycle is observed; everything above it — frames, codec, session —
// is transport-agnostic.
type Transport interface {
	// Dial connects one shard's worker. onDeath, when non-nil, is invoked at
	// most once from a watcher goroutine if the transport observes the peer
	// die out of band (a child process exiting); transports with no such
	// signal never invoke it and death surfaces in-band, on the next wire
	// operation. shard is for diagnostics only.
	Dial(shard int, onDeath func(error)) (Conn, error)
}

// Conn is one established worker connection: the byte stream plus the three
// lifecycle verbs the session needs. Reads and writes are serialized by the
// session; Kill may race them (that is its job).
type Conn interface {
	io.Reader
	io.Writer
	// CloseWrite signals end-of-stream to the peer after the close frame —
	// half-closing a pipe or socket so an orderly worker drains and exits.
	CloseWrite() error
	// Close tears the connection down completely, reaping the peer when the
	// transport owns its lifecycle (bounded: a child process that lingers
	// after CloseWrite is killed).
	Close() error
	// Kill severs the connection immediately — the chaos hook and the
	// failed-spawn cleanup. It also unblocks any in-flight read.
	Kill() error
}

// ProcessTransport spawns the worker as a child OS process and speaks over
// its stdio pipes — the default since the first worker backend. The child
// inherits the parent's stderr (its logs interleave) and gets WorkerEnv
// set, so any binary calling ServeIfWorker early in main — including test
// binaries and the parent executable itself — can serve.
type ProcessTransport struct {
	// Argv is the worker command; Argv[0] must speak the worker protocol on
	// stdin/stdout.
	Argv []string
}

func (t *ProcessTransport) Dial(shard int, onDeath func(error)) (Conn, error) {
	if len(t.Argv) == 0 {
		return nil, fmt.Errorf("backend: empty worker command")
	}
	cmd := exec.Command(t.Argv[0], t.Argv[1:]...)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("backend: starting worker %q: %w", t.Argv[0], err)
	}
	c := &procConn{cmd: cmd, stdin: stdin, stdout: stdout, reaped: make(chan struct{})}
	go func() {
		// Always reap; the death callback decides (via the session's closing
		// state) whether the exit was orderly.
		err := cmd.Wait()
		close(c.reaped)
		if onDeath != nil {
			onDeath(fmt.Errorf("worker process for shard %d exited unexpectedly (%v)", shard, exitReason(err)))
		}
	}()
	return c, nil
}

// exitReason renders a Wait error readably ("exit status 1", "signal:
// killed", or "exit status 0" for a silent quit).
func exitReason(err error) string {
	if err == nil {
		return "exit status 0"
	}
	return err.Error()
}

// procConn is a child process's stdio pipe pair.
type procConn struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	reaped chan struct{}
}

func (c *procConn) Read(p []byte) (int, error)  { return c.stdout.Read(p) }
func (c *procConn) Write(p []byte) (int, error) { return c.stdin.Write(p) }
func (c *procConn) CloseWrite() error           { return c.stdin.Close() }

// Close waits briefly for the reaped child, then kills a lingerer. By the
// time it runs the session has already attempted the orderly close frame.
func (c *procConn) Close() error {
	_ = c.stdin.Close()
	select {
	case <-c.reaped:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.reaped
	}
	return nil
}

func (c *procConn) Kill() error {
	if c.cmd.Process == nil {
		return fmt.Errorf("backend: worker process never started")
	}
	return c.cmd.Process.Kill()
}

// TCPTransport dials a worker host started with `aimes-worker serve
// --listen` (or ServeListener) — the first transport whose worker can live
// on another machine. Authentication is a shared-secret challenge/response
// (see handshake below); the stream itself is cleartext, so until TLS lands
// this belongs on trusted networks only.
//
// A TCP worker has no out-of-band death signal: Dial's onDeath is never
// invoked and a dead peer surfaces in-band, as a transport error on the
// next wire operation — which the session converts into the same
// shard-death handling a crashed child process gets.
type TCPTransport struct {
	// Addr is the worker host's listen address, e.g. "fleet-3:9464".
	Addr string
	// Secret is the shared handshake secret; it must match the host's.
	Secret string
	// DialTimeout bounds dialing plus the handshake (0 means 10s).
	DialTimeout time.Duration
}

// SecretFromEnv is the handshake secret's fallback for both ends of a TCP
// connection when none is configured: $AIMES_WORKER_SECRET, then the
// whitespace-trimmed contents of the file $AIMES_WORKER_SECRET_FILE names —
// so neither side needs the secret in its environment listing. Empty when
// neither is set.
func SecretFromEnv() (string, error) {
	if s := os.Getenv("AIMES_WORKER_SECRET"); s != "" {
		return s, nil
	}
	path := os.Getenv("AIMES_WORKER_SECRET_FILE")
	if path == "" {
		return "", nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("reading $AIMES_WORKER_SECRET_FILE: %w", err)
	}
	return strings.TrimSpace(string(b)), nil
}

func (t *TCPTransport) Dial(shard int, onDeath func(error)) (Conn, error) {
	timeout := t.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	nc, err := net.DialTimeout("tcp", t.Addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("backend: dialing worker host %s: %w", t.Addr, err)
	}
	if err := clientHandshake(nc, t.Secret, timeout); err != nil {
		nc.Close()
		return nil, fmt.Errorf("backend: handshake with worker host %s: %w", t.Addr, err)
	}
	return &tcpConn{nc: nc}, nil
}

// tcpConn is one authenticated connection to a worker host; the host runs
// one shard stack per connection.
type tcpConn struct {
	nc net.Conn
}

func (c *tcpConn) Read(p []byte) (int, error)  { return c.nc.Read(p) }
func (c *tcpConn) Write(p []byte) (int, error) { return c.nc.Write(p) }

func (c *tcpConn) CloseWrite() error {
	if hc, ok := c.nc.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return nil
}

func (c *tcpConn) Close() error { return c.nc.Close() }
func (c *tcpConn) Kill() error  { return c.nc.Close() }

// The TCP handshake, before any frame: the client sends an 8-byte protocol
// magic, the host answers with a 16-byte random nonce, the client proves
// the shared secret with HMAC-SHA256(secret, nonce), and the host answers
// one verdict byte. The secret never crosses the wire and a replayed
// recording proves nothing (fresh nonce per connection); what this does NOT
// give is confidentiality or integrity of the stream that follows — that is
// TLS's job, deliberately left to a later change.
const handshakeMagic = "AIMESWP1"

const (
	handshakeOK       = 0x01
	handshakeRejected = 0x00
)

func clientHandshake(nc net.Conn, secret string, timeout time.Duration) error {
	if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer nc.SetDeadline(time.Time{})
	if _, err := nc.Write([]byte(handshakeMagic)); err != nil {
		return err
	}
	var nonce [16]byte
	if _, err := io.ReadFull(nc, nonce[:]); err != nil {
		return fmt.Errorf("reading nonce: %w", err)
	}
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(nonce[:])
	if _, err := nc.Write(mac.Sum(nil)); err != nil {
		return err
	}
	var verdict [1]byte
	if _, err := io.ReadFull(nc, verdict[:]); err != nil {
		return fmt.Errorf("reading verdict: %w", err)
	}
	if verdict[0] != handshakeOK {
		return fmt.Errorf("worker host rejected the connection (shared secret mismatch?)")
	}
	return nil
}

// hostHandshake is the listener's half. It reports an error without writing
// a verdict for protocol garbage (a port scanner, a stray HTTP client) and
// writes an explicit rejection for a well-formed attempt with a wrong
// secret, so a misconfigured client fails with a diagnosis instead of a
// timeout.
func hostHandshake(nc net.Conn, secret string, timeout time.Duration) error {
	if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer nc.SetDeadline(time.Time{})
	var magic [len(handshakeMagic)]byte
	if _, err := io.ReadFull(nc, magic[:]); err != nil {
		return fmt.Errorf("reading magic: %w", err)
	}
	if string(magic[:]) != handshakeMagic {
		return fmt.Errorf("bad protocol magic %q", magic[:])
	}
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	if _, err := nc.Write(nonce[:]); err != nil {
		return err
	}
	proof := make([]byte, sha256.Size)
	if _, err := io.ReadFull(nc, proof); err != nil {
		return fmt.Errorf("reading proof: %w", err)
	}
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(nonce[:])
	if !hmac.Equal(proof, mac.Sum(nil)) {
		_, _ = nc.Write([]byte{handshakeRejected})
		return fmt.Errorf("shared secret mismatch from %s", nc.RemoteAddr())
	}
	if _, err := nc.Write([]byte{handshakeOK}); err != nil {
		return err
	}
	return nil
}
