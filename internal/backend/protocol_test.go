package backend

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testConn adapts an io.Pipe pair to the Conn seam for in-memory client
// tests against scripted servers.
type testConn struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (c *testConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *testConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *testConn) CloseWrite() error           { return c.w.Close() }
func (c *testConn) Close() error                { c.w.Close(); return c.r.Close() }
func (c *testConn) Kill() error {
	c.r.CloseWithError(errors.New("killed"))
	c.w.CloseWithError(errors.New("killed"))
	return nil
}

// transportFunc adapts a dial function to the Transport seam.
type transportFunc func(shard int, onDeath func(error)) (Conn, error)

func (f transportFunc) Dial(shard int, onDeath func(error)) (Conn, error) {
	return f(shard, onDeath)
}

// pipeWorker wires a client Conn to a live serve loop over in-memory pipes
// — the full protocol stack with no process and no socket.
func pipeWorker(t *testing.T) Transport {
	t.Helper()
	return transportFunc(func(int, func(error)) (Conn, error) {
		cr, sw := io.Pipe() // client reads ← server writes
		sr, cw := io.Pipe() // server reads ← client writes
		go func() {
			if err := serveStream(sr, sw, severStreams(sr, sw)); err != nil {
				sw.CloseWithError(err)
				return
			}
			sw.Close()
		}()
		return &testConn{r: cr, w: cw}, nil
	})
}

// TestConnectNegotiatesBinary drives the real client against the real serve
// loop in-memory: the default codec choice lands on binary, and the session
// works end to end over it.
func TestConnectNegotiatesBinary(t *testing.T) {
	for _, choice := range []string{"", CodecBinary, CodecJSON} {
		w, err := Connect(pipeWorker(t), WorkerOptions{Codec: choice}, Config{Shard: 2, Seed: 7}, &collectSink{}, nil)
		if err != nil {
			t.Fatalf("codec %q: %v", choice, err)
		}
		if fired, drained, err := w.Step(1); err != nil || fired != 0 || !drained {
			t.Fatalf("codec %q: Step on an idle shard = %d, %v, %v", choice, fired, drained, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("codec %q: close: %v", choice, err)
		}
	}
}

// TestHostRejectsUnknownCodec checks the negotiation's server half: an init
// requesting a codec this worker cannot speak is answered with a
// descriptive error — in JSON, so the client can read the verdict — and the
// worker stays alive for a corrected init.
func TestHostRejectsUnknownCodec(t *testing.T) {
	cr, sw := io.Pipe()
	sr, cw := io.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(sr, sw) }()

	call := func(req *request) *response {
		t.Helper()
		if err := writeFrame(cw, req); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := readFrame(cr, &resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}
	resp := call(&request{ID: 1, Op: opInit, Init: &Config{Seed: 1}, Codec: "yaml"})
	if resp.Err == "" {
		t.Fatal("unknown codec accepted")
	}
	for _, want := range []string{"yaml", CodecJSON, CodecBinary} {
		if !strings.Contains(resp.Err, want) {
			t.Errorf("rejection %q does not mention %q", resp.Err, want)
		}
	}
	if resp.Codec != "" {
		t.Fatalf("rejection echoed codec %q", resp.Codec)
	}
	// The worker survives the refusal: a corrected init succeeds and the
	// echo confirms the accepted codec.
	resp = call(&request{ID: 2, Op: opInit, Init: &Config{Seed: 1}, Codec: CodecJSON})
	if resp.Err != "" {
		t.Fatalf("corrected init failed: %s", resp.Err)
	}
	if resp.Codec != CodecJSON {
		t.Fatalf("echoed codec %q, want %q", resp.Codec, CodecJSON)
	}
	call(&request{ID: 3, Op: opClose})
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after close")
	}
}

// scriptedServer answers the init exchange in plain JSON without echoing a
// codec — a peer that is not this tree's worker — and then hands the stream
// to script.
func scriptedServer(t *testing.T, script func(r io.Reader, w *io.PipeWriter)) Transport {
	t.Helper()
	return transportFunc(func(int, func(error)) (Conn, error) {
		cr, sw := io.Pipe()
		sr, cw := io.Pipe()
		go func() {
			var req request
			if err := readFrame(sr, &req); err != nil || req.Op != opInit {
				sw.CloseWithError(fmt.Errorf("scripted server: bad init: %v", err))
				return
			}
			if err := writeFrame(sw, &response{ID: req.ID}); err != nil {
				return
			}
			script(sr, sw)
		}()
		return &testConn{r: cr, w: cw}, nil
	})
}

// TestConnectRejectsWorkerWithoutBinary: binary is the wire's data codec, so
// a peer that does not echo it fails Connect with an error naming the codec —
// asked for by name or by default alike — instead of leaving the session on
// JSON; a client that pinned JSON asked for nothing and still connects.
func TestConnectRejectsWorkerWithoutBinary(t *testing.T) {
	echo := func(r io.Reader, w *io.PipeWriter) {
		for {
			var req request
			if err := readFrame(r, &req); err != nil {
				return
			}
			if err := writeFrame(w, &response{ID: req.ID, Fired: 424242}); err != nil {
				return
			}
		}
	}
	for _, name := range []string{"", CodecBinary} {
		_, err := Connect(scriptedServer(t, echo), WorkerOptions{Codec: name}, Config{Shard: 0, Seed: 1}, &collectSink{}, nil)
		if err == nil {
			t.Fatalf("codec %q connected to a worker that never echoed %q", name, CodecBinary)
		}
		if !strings.Contains(err.Error(), CodecBinary) {
			t.Fatalf("codec %q: failure does not name the codec: %v", name, err)
		}
	}

	w, err := Connect(scriptedServer(t, echo), WorkerOptions{Codec: CodecJSON}, Config{Shard: 0, Seed: 1}, &collectSink{}, nil)
	if err != nil {
		t.Fatalf("pinned-JSON connect: %v", err)
	}
	if fired, _, err := w.Step(1); err != nil || fired != 424242 {
		t.Fatalf("pinned-JSON call: %d, %v", fired, err)
	}
}

// TestFrameCorruptionFailsShardNotProcess is the containment half of the
// framing contract: a worker that answers with a truncated or oversized
// frame kills that session — the call errors, later calls fail fast, the
// death callback fires once so the environment fails the shard's jobs —
// and nothing panics or exits the parent process.
func TestFrameCorruptionFailsShardNotProcess(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(w *io.PipeWriter)
		want    string
	}{
		{
			// Header promises 100 bytes, the stream ends after 10.
			name: "truncated",
			corrupt: func(w *io.PipeWriter) {
				w.Write([]byte{0, 0, 0, 100})
				w.Write(make([]byte, 10))
				w.Close()
			},
			want: "closed its connection",
		},
		{
			// Header promises more than the frame limit allows.
			name: "oversized",
			corrupt: func(w *io.PipeWriter) {
				w.Write([]byte{0x7F, 0xFF, 0xFF, 0xFF})
			},
			want: "exceeds",
		},
		{
			// A full frame whose payload is not the negotiated codec.
			name: "garbage",
			corrupt: func(w *io.PipeWriter) {
				w.Write([]byte{0, 0, 0, 4})
				w.Write([]byte("????"))
			},
			want: "decoding frame",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var deaths atomic.Int32
			onDeath := func(error) { deaths.Add(1) }
			tr := scriptedServer(t, func(r io.Reader, w *io.PipeWriter) {
				var req request
				if err := readFrame(r, &req); err != nil {
					return
				}
				tc.corrupt(w)
			})
			// Pin JSON so the scripted init exchange is the whole negotiation.
			wk, err := Connect(tr, WorkerOptions{Codec: CodecJSON}, Config{Shard: 3, Seed: 1}, &collectSink{}, onDeath)
			if err != nil {
				t.Fatalf("connect: %v", err)
			}
			_, _, err = wk.Step(64)
			if err == nil {
				t.Fatal("corrupt frame answered a Step without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			// The session is dead, not wedged: later calls fail fast with the
			// same cause instead of touching the broken stream.
			if _, _, err2 := wk.Step(64); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("post-corruption call: %v, want the dead-session error %q", err2, err)
			}
			// The death callback (the environment's fail-the-shard hook) fired
			// exactly once, asynchronously.
			deadline := time.Now().Add(5 * time.Second)
			for deaths.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := deaths.Load(); got != 1 {
				t.Fatalf("death callback ran %d times, want 1", got)
			}
		})
	}
}

// TestTCPHandshake covers the TCP transport's admission contract: a wrong
// secret is rejected with a diagnosis, protocol garbage never reaches a
// shard, and a correct secret yields a working worker — all against one
// host listener that survives every rejected attempt.
func TestTCPHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ServeListener(ln, ServeConfig{Secret: "right-secret"})
	addr := ln.Addr().String()

	if _, err := (&TCPTransport{Addr: addr, Secret: "wrong-secret", DialTimeout: 5 * time.Second}).Dial(0, nil); err == nil {
		t.Fatal("wrong secret dialed successfully")
	} else if !strings.Contains(err.Error(), "secret") {
		t.Fatalf("wrong-secret error not diagnostic: %v", err)
	}

	// A non-protocol client (port scanner, stray HTTP): the host drops it.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("host answered protocol garbage")
	}
	nc.Close()

	// The listener is still healthy: a correct secret gets a live shard.
	tr := &TCPTransport{Addr: addr, Secret: "right-secret", DialTimeout: 5 * time.Second}
	w, err := Connect(tr, WorkerOptions{}, Config{Shard: 0, Seed: 9}, &collectSink{}, nil)
	if err != nil {
		t.Fatalf("connect after rejections: %v", err)
	}
	if fired, drained, err := w.Step(1); err != nil || fired != 0 || !drained {
		t.Fatalf("Step over TCP: %d, %v, %v", fired, drained, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Secretless hosting is refused outright.
	if err := ServeListener(ln, ServeConfig{}); err == nil || !strings.Contains(err.Error(), "secret") {
		t.Fatalf("secretless ServeListener: %v", err)
	}
}
