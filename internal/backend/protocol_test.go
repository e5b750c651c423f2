package backend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
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
// loop in-memory: either spelling of the one codec lands on binary, and the
// session works end to end over it.
func TestConnectNegotiatesBinary(t *testing.T) {
	for _, choice := range []string{"", CodecBinary} {
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

// TestHostRejectsUnknownCodec checks the negotiation's server half: an
// init requesting anything but the binary layout's versioned name — none,
// JSON, a bare or older binary name — is answered with a descriptive error,
// in JSON so the client can read the verdict, and the worker stays alive
// for a corrected init.
func TestHostRejectsUnknownCodec(t *testing.T) {
	p := servePeer(t)
	// The bare binary name is a parent built before the layouts were
	// versioned, and binary/5 one built before the handshake left the
	// binary frames: either would misread this worker's frames.
	for _, name := range []string{"", "json", "yaml", CodecBinary, CodecBinary + "/4", CodecBinary + "/5"} {
		resp := p.init(&initRequest{Op: initOp, Init: &Config{Seed: 1}, Codec: name})
		if resp.Err == "" {
			t.Fatalf("codec %q accepted", name)
		}
		for _, want := range []string{strconv.Quote(name), binaryWire} {
			if !strings.Contains(resp.Err, want) {
				t.Errorf("rejection %q does not mention %q", resp.Err, want)
			}
		}
		if resp.Codec != "" {
			t.Fatalf("rejection echoed codec %q", resp.Codec)
		}
	}
	// The worker survives the refusal: a corrected init succeeds, the echo
	// confirms the layout, and the close after it goes out in binary.
	resp := p.init(&initRequest{Op: initOp, Init: &Config{Seed: 1}, Codec: binaryWire})
	if resp.Err != "" || resp.Codec != binaryWire {
		t.Fatalf("corrected init: %q, echoed %q, want %q", resp.Err, resp.Codec, binaryWire)
	}
	p.close()
}

// TestHostAcceptsOnlyInit: until it accepts an init, the host reads JSON
// init frames only. A frame that is anything else — a ping, a step, an init
// without a config or with a field the handshake does not have, or not one
// JSON document — is answered under its ID with a descriptive error and
// builds no stack, and the stream's end then ends the serve loop cleanly.
func TestHostAcceptsOnlyInit(t *testing.T) {
	codec := strconv.Quote(binaryWire)
	frames := []struct {
		payload string
		id      uint64
		want    string
	}{
		{`{"id":1,"op":"ping"}`, 1, `expected an init frame, got op "ping"`},
		{`{"id":2,"op":"step","max":64}`, 2, `unknown field "max"`},
		{`{"id":3,"op":"init","codec":` + codec + `}`, 3, "init frame without a config"},
		{`{"id":4,"op":"init","init":{"seed":1},"codec":` + codec + `,"events":[]}`, 4, `unknown field "events"`},
		{`{"id":5,"op":"init","init":{"seed":1,"testbed":"x"},"codec":` + codec + `}`, 5, `unknown field "testbed"`},
		{`{"id":6,"op":"init","init":{"seed":1},"codec":` + codec + `} {}`, 6, "data after the JSON document"},
		{`{}`, 0, `expected an init frame, got op ""`},
		{"\x03", 0, "invalid character"}, // a binary step's opcode
	}
	var in, out bytes.Buffer
	for _, f := range frames {
		in.Write(binary.BigEndian.AppendUint32(nil, uint32(len(f.payload))))
		in.WriteString(f.payload)
	}
	h := newHost(&in, &out, nil)
	if err := h.run(); err != nil || h.local != nil {
		t.Fatalf("serving refused frames: %v, stack built %v; want the stream's end and no stack", err, h.local != nil)
	}
	for _, f := range frames {
		var resp initResponse
		if err := readFrame(&out, &resp); err != nil {
			t.Fatalf("%s: %v", f.payload, err)
		}
		if resp.ID != f.id || resp.Codec != "" || !strings.HasPrefix(resp.Err, "backend: ") || !strings.Contains(resp.Err, f.want) {
			t.Errorf("%s answered %+v, want a refusal under ID %d naming %q", f.payload, resp, f.id, f.want)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("%d bytes after the answers", out.Len())
	}
}

// TestHostRefusesInitAfterHandshake: once the host accepted an init it
// reads binary frames only, so another JSON init is not a request at all —
// its first byte is no opcode — and it ends the session with a decoding
// error instead of a second stack.
func TestHostRefusesInitAfterHandshake(t *testing.T) {
	var in, out bytes.Buffer
	for range 2 {
		if err := writeFrame(&in, &initRequest{ID: 1, Op: initOp, Init: &Config{Seed: 1}, Codec: binaryWire}); err != nil {
			t.Fatal(err)
		}
	}
	err := serveStream(&in, &out, nil)
	if want := "backend: decoding frame: unknown opcode 123"; err == nil || err.Error() != want {
		t.Fatalf("a second init: %v, want %q", err, want)
	}
	var resp initResponse
	if err := readFrame(&out, &resp); err != nil || resp.Codec != binaryWire || out.Len() != 0 {
		t.Fatalf("the first init's answer %+v (%v), then %d bytes", resp, err, out.Len())
	}
}

// scriptedInit answers the handshake in JSON with what answer returns for
// the init request, and then hands the stream to script.
func scriptedInit[A any](t *testing.T, answer func(*initRequest) A, script func(r io.Reader, w *io.PipeWriter)) Transport {
	t.Helper()
	return transportFunc(func(int, func(error)) (Conn, error) {
		cr, sw := io.Pipe()
		sr, cw := io.Pipe()
		go func() {
			var req initRequest
			if err := readFrame(sr, &req); err != nil || req.Op != initOp {
				sw.CloseWithError(fmt.Errorf("scripted server: bad init: %v", err))
				return
			}
			if err := writeFrame(sw, answer(&req)); err != nil {
				return
			}
			script(sr, sw)
		}()
		return &testConn{r: cr, w: cw}, nil
	})
}

// acceptInit answers an init as this tree's worker does, echoing the layout
// asked for.
func acceptInit(req *initRequest) *initResponse {
	return &initResponse{ID: req.ID, Codec: req.Codec}
}

// TestConnectRejectsUnknownCodec: a codec choice that is neither binary nor
// empty fails Connect, naming it and binary, before anything is dialed.
func TestConnectRejectsUnknownCodec(t *testing.T) {
	never := transportFunc(func(int, func(error)) (Conn, error) {
		t.Fatal("dialed a worker for an unknown codec")
		return nil, nil
	})
	for _, name := range []string{"yaml", "json"} {
		_, err := Connect(never, WorkerOptions{Codec: name}, Config{Shard: 0, Seed: 1}, &collectSink{}, nil)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) || !strings.Contains(err.Error(), strconv.Quote(CodecBinary)) {
			t.Fatalf("codec %q: err = %v, want one naming it and %q", name, err, CodecBinary)
		}
	}
}

// TestConnectRejectsWorkerWithoutBinary: binary is the wire's data codec, so
// a peer that does not echo its layout fails Connect with an error naming
// the layout — asked for by name or by default alike — and, for a peer of
// another layout, that layout too.
func TestConnectRejectsWorkerWithoutBinary(t *testing.T) {
	refuse := func(supports string) func(*initRequest) *initResponse {
		return func(req *initRequest) *initResponse {
			return &initResponse{ID: req.ID, Err: fmt.Sprintf("backend: worker does not support wire codec %q (supports %q)", req.Codec, supports)}
		}
	}
	echo := func(name string) func(*initRequest) *initResponse {
		return func(req *initRequest) *initResponse { return &initResponse{ID: req.ID, Codec: name} }
	}
	prev, last := CodecBinary+"/3", CodecBinary+"/5"
	for _, tc := range []struct {
		name   string
		answer func(*initRequest) *initResponse
		also   string // what the error names beside binaryWire
	}{
		// A peer that knows no binary accepts the init and echoes nothing.
		{"echoes nothing", echo(""), binaryWire},
		// A worker built before the payload layouts were versioned knows
		// binary by its bare name only. It refuses the versioned name as it
		// would any unknown codec, and one that echoed the bare name anyway
		// is refused by the parent: the pair fails at the handshake, not
		// mid-job.
		{"refuses the versioned name", refuse(CodecBinary), binaryWire},
		{"echoes the bare name", echo(CodecBinary), binaryWire},
		// A worker built with an older layout, "binary/3" (a feedback op
		// whose request carried a report), refuses this one as an unknown
		// codec; one that answered with its own layout name anyway is
		// refused by the parent, naming both.
		{"refuses the new layout", refuse(prev), prev},
		{"answers with the old layout", echo(prev), prev},
		// A binary/5 worker, the last whose binary requests had room for an
		// init, refuses this layout; one that echoed its own is refused.
		{"refuses this layout as binary/5 does", refuse(last), last},
		{"echoes binary/5", echo(last), last},
	} {
		for _, name := range []string{"", CodecBinary} {
			_, err := Connect(scriptedInit(t, tc.answer, func(io.Reader, *io.PipeWriter) {}), WorkerOptions{Codec: name}, Config{Shard: 0, Seed: 1}, &collectSink{}, nil)
			if err == nil || !strings.Contains(err.Error(), binaryWire) || !strings.Contains(err.Error(), tc.also) {
				t.Fatalf("a worker that %s, codec %q: connect error %v, want one naming %q and %q", tc.name, name, err, binaryWire, tc.also)
			}
		}
	}
}

// TestConnectRejectsJSONWorker: a worker that accepts the init but keeps
// the session on JSON — echoing "json", as one built when JSON could be
// pinned would — fails Connect with an error naming the binary layout.
func TestConnectRejectsJSONWorker(t *testing.T) {
	answer := func(req *initRequest) *initResponse { return &initResponse{ID: req.ID, Codec: "json"} }
	_, err := Connect(scriptedInit(t, answer, func(io.Reader, *io.PipeWriter) {}), WorkerOptions{}, Config{Shard: 0, Seed: 1}, &collectSink{}, nil)
	if err == nil || !strings.Contains(err.Error(), binaryWire) || !strings.Contains(err.Error(), `"json"`) {
		t.Fatalf("a JSON worker: connect error %v, want one naming %q and %q", err, binaryWire, "json")
	}
}

// TestConnectRejectsInitWithEvents: events ride binary frames only, so an
// init response that carries any — even one echoing the binary layout —
// fails Connect as a corrupt frame, and none of them reaches the sink.
func TestConnectRejectsInitWithEvents(t *testing.T) {
	type withEvents struct {
		initResponse
		Events []wireEvent `json:"events"`
	}
	answer := func(req *initRequest) *withEvents {
		return &withEvents{*acceptInit(req), []wireEvent{{Kind: kindTrace, Key: 1, NS: "s0-j1", Rec: &trace.Record{Entity: "em", State: "NEW"}}}}
	}
	sink := &callSink{}
	_, err := Connect(scriptedInit(t, answer, func(io.Reader, *io.PipeWriter) {}), WorkerOptions{}, Config{Shard: 0, Seed: 1}, sink, nil)
	if err == nil || !strings.Contains(err.Error(), `decoding frame: json: unknown field "events"`) {
		t.Fatalf("an init response with events: connect error %v, want a decoding error", err)
	}
	if len(sink.calls) != 0 {
		t.Fatalf("the init response's events reached the sink: %+v", sink.calls)
	}
}

// TestFrameCorruptionFailsShardNotProcess is the containment half of the
// framing contract: a worker that answers with a truncated or oversized
// frame kills that session — the call errors, later calls fail fast, the
// death callback fires once with the same verdict so the environment fails
// the shard's jobs — and nothing panics or exits the parent process. A
// stream that ends is the connection's verdict, its detail unwrapped; a
// frame the package refuses keeps its own text. Both are ErrWorkerLost.
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
			want: "backend: worker for shard 3 lost",
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
			var cause atomic.Value
			onDeath := func(err error) {
				cause.Store(err)
				deaths.Add(1)
			}
			tr := scriptedInit(t, acceptInit, func(r io.Reader, w *io.PipeWriter) {
				if _, err := readFrameInto(bufio.NewReader(r), nil, DefaultMaxFrame); err != nil {
					return
				}
				tc.corrupt(w)
			})
			wk, err := Connect(tr, WorkerOptions{}, Config{Shard: 3, Seed: 1}, &collectSink{}, onDeath)
			if err != nil {
				t.Fatalf("connect: %v", err)
			}
			_, _, err = wk.Step(64)
			if err == nil {
				t.Fatal("corrupt frame answered a Step without error")
			}
			if !strings.Contains(err.Error(), tc.want) || !errors.Is(err, ErrWorkerLost) {
				t.Fatalf("error %q does not contain %q or is not ErrWorkerLost", err, tc.want)
			}
			if tc.name == "truncated" && (err.Error() != tc.want || !errors.Is(err, io.ErrUnexpectedEOF)) {
				t.Fatalf("truncated frame: %q, want the verdict %q wrapping %v", err, tc.want, io.ErrUnexpectedEOF)
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
			if got := cause.Load(); got != err {
				t.Fatalf("death callback given %v, want the call's verdict %v", got, err)
			}
		})
	}
}

// eofConn is a worker connection that takes every write and answers EOF.
type eofConn struct{}

func (eofConn) Read([]byte) (int, error)    { return 0, io.EOF }
func (eofConn) Write(p []byte) (int, error) { return len(p), nil }
func (eofConn) CloseWrite() error           { return nil }
func (eofConn) Close() error                { return nil }
func (eofConn) Kill() error                 { return nil }

// TestFailedConnectRunsNoDeathCallback: a Connect that fails never runs the
// death callback, whoever reports the failure — the handshake's own read
// (a connection that answers EOF) or the watcher of a child process that
// exits before its init (false). In the fleet the callback is the shard's
// death handler, and a failed Connect is a placement that fails over to
// the next endpoint.
func TestFailedConnectRunsNoDeathCallback(t *testing.T) {
	var deaths atomic.Int32
	onDeath := func(error) { deaths.Add(1) }
	eof := transportFunc(func(int, func(error)) (Conn, error) { return eofConn{}, nil })
	for range 2000 {
		if _, err := Connect(eof, WorkerOptions{}, Config{Seed: 1}, &collectSink{}, onDeath); !errors.Is(err, ErrWorkerLost) {
			t.Fatalf("connect over a connection that answers EOF: %v, want %v", err, ErrWorkerLost)
		}
	}
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false command")
	}
	reported := make(chan struct{}, 1)
	quits := transportFunc(func(shard int, onDeath func(error)) (Conn, error) {
		return (&ProcessTransport{Argv: []string{bin}}).Dial(shard, func(err error) {
			onDeath(err)
			reported <- struct{}{}
		})
	})
	for range 200 {
		if _, err := Connect(quits, WorkerOptions{}, Config{Seed: 1}, &collectSink{}, onDeath); err == nil {
			t.Fatal("connect to a process that exits at once succeeded")
		}
		<-reported // the watcher has reported the exit
	}
	time.Sleep(50 * time.Millisecond) // a callback either reporter started has run
	if n := deaths.Load(); n != 0 {
		t.Fatalf("%d failed Connects ran the death callback, want none", n)
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

// scriptedWorker accepts the binary layout at init, then answers every
// request with what reply returns for it, encoded under the request's ID.
// One Connect per transport.
func scriptedWorker(t *testing.T, reply func(req *request) *response) Transport {
	t.Helper()
	c := newBinaryCodec()
	return scriptedInit(t, acceptInit, func(r io.Reader, w *io.PipeWriter) {
		in := bufio.NewReader(r)
		var buf []byte
		for {
			var err error
			if buf, err = readFrameInto(in, buf, DefaultMaxFrame); err != nil {
				return
			}
			var req request
			if err := c.DecodeRequest(buf, &req); err != nil {
				w.CloseWithError(err)
				return
			}
			resp := reply(&req)
			resp.ID = req.ID
			frame, err := c.AppendResponse(make([]byte, 4), resp)
			if err == nil {
				err = finishFrame(frame, DefaultMaxFrame)
			}
			if err != nil {
				w.CloseWithError(err)
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
		}
	})
}

// awaitDeaths waits for the death callback's count to reach one, and fails
// unless it stays there.
func awaitDeaths(t *testing.T, deaths *atomic.Int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for deaths.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if got := deaths.Load(); got != 1 {
		t.Fatalf("death callback ran %d times, want 1", got)
	}
}

// TestPingWithPayloadKillsSession: the host answers a ping without touching
// its engine, so a ping reply carrying events, an enact result or a
// strategy is a protocol violation. The session dies, the death callback
// runs once, nothing reaches the sink, and later calls fail fast.
func TestPingWithPayloadKillsSession(t *testing.T) {
	rec := &trace.Record{Entity: "unit.0001", State: "DONE"}
	for name, payload := range map[string]response{
		"events":   {Events: []wireEvent{{Kind: kindTrace, Key: 1, NS: "s0-j1", Rec: rec}}},
		"enacted":  {Enacted: &Enacted{Namespace: "s0-j1"}},
		"strategy": {Strategy: &core.Strategy{Pilots: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			var deaths atomic.Int32
			sink := &callSink{}
			tr := scriptedWorker(t, func(req *request) *response {
				if req.Op == opPing {
					p := payload
					return &p
				}
				return &response{}
			})
			w, err := Connect(tr, WorkerOptions{}, Config{Shard: 4, Seed: 1}, sink, func(error) { deaths.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			defer w.Kill()
			err = w.Ping()
			if err == nil || !strings.Contains(err.Error(), "answered a ping") {
				t.Fatalf("ping answered with %s: %v, want a protocol error", name, err)
			}
			if !w.Dead() {
				t.Fatal("the session outlived a protocol violation")
			}
			if _, _, err2 := w.Step(1); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("call after the violation: %v, want the dead-session error %q", err2, err)
			}
			if err2 := w.Ping(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("ping after the violation: %v, want the dead-session error %q", err2, err)
			}
			awaitDeaths(t, &deaths)
			if len(sink.calls) != 0 {
				t.Fatalf("a ping reply reached the sink: %+v", sink.calls)
			}
		})
	}
}

// TestTruncatedChunkFailsSessionOnce: a Step response whose frame ends
// inside its last event decodes one whole chunk before the failing one.
// That chunk reaches the sink and no event of the failing one does; the
// session dies with the decoder's error, the death callback runs once, and
// later calls fail fast with the same error.
func TestTruncatedChunkFailsSessionOnce(t *testing.T) {
	resp := &response{Fired: 1}
	for i := range eventChunk + 10 {
		rec := &trace.Record{Time: sim.Time(i), Entity: "unit.0001", State: "EXECUTING", Detail: "pilot=s0-j1.p0"}
		resp.Events = append(resp.Events, wireEvent{Kind: kindTrace, Key: 1, NS: "s0-j1", Rec: rec})
	}
	payload, err := newBinaryCodec().AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	frame := cannedFrame(t, payload[:len(payload)-3])
	var reply atomic.Pointer[[]byte]
	reply.Store(&frame)
	var deaths atomic.Int32
	sink := &countSink{}
	w, err := Connect(cannedWorker(t, &reply), WorkerOptions{}, Config{Shard: 5, Seed: 1}, sink, func(error) { deaths.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Kill()
	_, _, err = w.Step(64)
	if want := "backend: decoding frame: truncated uvarint"; err == nil || err.Error() != want {
		t.Fatalf("Step over a truncated frame: %v, want %q", err, want)
	}
	if sink.traces != eventChunk || sink.done != 0 {
		t.Fatalf("the sink got %d records and %d completions, want the first chunk's %d records", sink.traces, sink.done, eventChunk)
	}
	if _, _, err2 := w.Step(64); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("call after the corrupt frame: %v, want the dead-session error %q", err2, err)
	}
	awaitDeaths(t, &deaths)
	if sink.traces != eventChunk {
		t.Fatalf("a later call dispatched more records: %d", sink.traces)
	}
}

// tapTransport copies what its connections read into read, and counts what
// they write.
type tapTransport struct {
	Transport
	read    *bytes.Buffer
	written *atomic.Int64
}

func (t tapTransport) Dial(shard int, onDeath func(error)) (Conn, error) {
	c, err := t.Transport.Dial(shard, onDeath)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, t: t}, nil
}

type tapConn struct {
	Conn
	t tapTransport
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.read.Write(p[:n])
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.written.Add(int64(n))
	return n, err
}

// TestWireStatsMatchTransport: the session's counters agree with what the
// connection under it moved, from the handshake on, and count every round
// trip and every event the sink was given.
func TestWireStatsMatchTransport(t *testing.T) {
	var read bytes.Buffer
	var written atomic.Int64
	sink := &collectSink{}
	w, err := Connect(tapTransport{pipeWorker(t), &read, &written}, WorkerOptions{}, Config{Seed: 3}, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	check := func(when string, roundTrips int64) {
		t.Helper()
		want := WireStats{RoundTrips: roundTrips, BytesSent: written.Load(), BytesReceived: int64(read.Len()), Events: int64(len(sink.traces) + len(sink.done))}
		if got := w.WireStats(); got != want {
			t.Fatalf("%s: session counted %+v, the connection %+v", when, got, want)
		}
	}
	check("after the handshake", 1)
	wl, err := skeleton.Generate(skeleton.BagOfTasks(16, skeleton.Constant(60)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Enact(&Descriptor{Key: 1, MigratedFrom: -1, Descriptor: core.Descriptor{
		Workload: wl,
		Config:   core.StrategyConfig{Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	calls := int64(2)
	for sink.done[1] == nil {
		if _, _, err := w.Step(64); err != nil {
			t.Fatal(err)
		}
		calls++
	}
	check("after a job", calls)
	if st := w.WireStats(); st.Events < 16 || st.BytesReceived <= st.BytesSent {
		t.Fatalf("a 16-task job's traffic: %+v", st)
	}
}

// TestPingDuringDispatch: a ping from another goroutine may take the wire
// between two chunks of a Step's dispatch — the prober does not wait for the
// shard — and neither side may disturb the other's frame or events.
func TestPingDuringDispatch(t *testing.T) {
	batch := make([]wireEvent, 5*eventChunk+7)
	for i := range batch {
		batch[i] = wireEvent{Kind: kindTrace, Key: 1, NS: "s0-j1", Rec: &trace.Record{Time: sim.Time(i), Entity: fmt.Sprintf("unit.%04d", i%48), State: "EXECUTING"}}
	}
	tr := scriptedWorker(t, func(req *request) *response {
		if req.Op == opStep {
			return &response{Fired: len(batch), Events: batch}
		}
		return &response{}
	})
	sink := &callSink{}
	w, err := Connect(tr, WorkerOptions{}, Config{Seed: 1}, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Kill()
	stop := make(chan struct{})
	pinged := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				pinged <- nil
				return
			default:
			}
			if err := w.Ping(); err != nil {
				pinged <- err
				return
			}
		}
	}()
	const steps = 40
	for range steps {
		if _, _, err := w.Step(len(batch)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-pinged; err != nil {
		t.Fatalf("ping: %v", err)
	}
	want := wantCalls(batch)
	if len(sink.calls) != steps*len(want) {
		t.Fatalf("%d calls, want %d", len(sink.calls), steps*len(want))
	}
	for i, c := range sink.calls {
		if !reflect.DeepEqual(c, want[i%len(want)]) {
			t.Fatalf("call %d is %+v, want %+v", i, c, want[i%len(want)])
		}
	}
}

// TestSeveredSessionEndsCleanly: the kill-worker action cuts the host's own
// streams, so the failure of its next read or write is the end it asked for:
// serveStream returns nil, and a worker process exits 0 without an error
// line. A write that fails with no sever is still a fault.
func TestSeveredSessionEndsCleanly(t *testing.T) {
	t.Run("kill-worker", func(t *testing.T) {
		served := make(chan error, 1)
		tr := transportFunc(func(int, func(error)) (Conn, error) {
			cr, sw := io.Pipe()
			sr, cw := io.Pipe()
			go func() { served <- serveStream(sr, sw, severStreams(sr, sw)) }()
			return &testConn{r: cr, w: cw}, nil
		})
		w, err := Connect(tr, WorkerOptions{}, Config{Seed: 1}, &callSink{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Kill()
		if err := w.Inject(ChaosEvent{Action: ChaosKillWorker}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Step(16); err == nil {
			t.Fatal("a step through a severed worker succeeded")
		}
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("a severed session ended with %v, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the severed session never ended")
		}
	})
	t.Run("write failure", func(t *testing.T) {
		var in bytes.Buffer
		if err := writeFrame(&in, &initRequest{ID: 1, Op: initOp, Init: &Config{Seed: 1}, Codec: binaryWire}); err != nil {
			t.Fatal(err)
		}
		err := serveStream(&in, failingWriter{}, func() {})
		if err == nil || !strings.Contains(err.Error(), "file already closed") {
			t.Fatalf("a failed write without a sever ended the session with %v, want its error", err)
		}
	})
}

// failingWriter fails every write, as a closed stdout does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("write /dev/stdout: file already closed")
}
