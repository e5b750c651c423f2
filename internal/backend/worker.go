package backend

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"aimes/internal/core"
	"aimes/internal/trace"
)

// WorkerEnv is the environment variable the parent sets in every worker
// child it spawns. Binaries that embed a worker entry point (see
// ServeIfWorker and the public aimes.WorkerMain) dispatch on it, so a test
// binary or an example program can act as its own worker pool without
// shipping a separate executable.
const WorkerEnv = "AIMES_WORKER_PROCESS"

// bufSink collects a Local backend's outputs between frames; the serve loop
// flushes it into every response so events ride back in order, and recycles
// the slice once the response is encoded — the Step hot path allocates no
// event storage in steady state.
type bufSink struct {
	events []wireEvent
}

func (s *bufSink) JobTrace(key int, ns string, rec trace.Record) {
	wr := trace.WireRecord(rec)
	s.events = append(s.events, wireEvent{Kind: eventTrace, Key: key, NS: ns, Rec: &wr})
}

func (s *bufSink) JobDone(key int, report *core.Report) {
	s.events = append(s.events, wireEvent{Kind: eventDone, Key: key, Report: report})
}

func (s *bufSink) flush() []wireEvent {
	ev := s.events
	s.events = nil
	return ev
}

// recycle returns an encoded event batch's storage for reuse. The serve
// loop is single-threaded, so no new events can have arrived between flush
// and recycle; the guard keeps a future violation from dropping events.
func (s *bufSink) recycle(ev []wireEvent) {
	if s.events != nil || ev == nil {
		return
	}
	clear(ev)
	s.events = ev[:0]
}

// host is the server half of the session layer: one shard worker serving
// strictly-alternating request/response frames over a byte stream, in
// whatever codec the init exchange negotiated. It hosts a Local backend
// built from the init frame and executes operations strictly in arrival
// order (the engine is single-threaded by design; serialization is the
// parent's job).
type host struct {
	in    *bufio.Reader
	out   io.Writer
	cod   codec
	sink  bufSink
	local *Local
	sever func()
	wbuf  []byte
	rbuf  []byte
}

// Serve runs one shard worker over a request/response byte stream — the
// child half of the worker backend, on the parent's stdio pipes. It returns
// nil on an orderly close or EOF (parent gone), an error on a protocol
// violation.
func Serve(r io.Reader, w io.Writer) error { return serveStream(r, w, severStreams(r, w)) }

// severStreams arms the kill-worker chaos action for a stream pair: closing
// both ends makes the parent observe a dead worker and makes this serve
// loop's next read or write fail, ending the session like a crash would.
func severStreams(r io.Reader, w io.Writer) func() {
	return func() {
		if c, ok := w.(io.Closer); ok {
			c.Close()
		}
		if c, ok := r.(io.Closer); ok {
			c.Close()
		}
	}
}

func serveStream(r io.Reader, w io.Writer, sever func()) error {
	h := &host{
		in:    bufio.NewReaderSize(r, 1<<16),
		out:   w,
		cod:   jsonCodec{},
		wbuf:  make([]byte, 0, 4096),
		sever: sever,
	}
	return h.run()
}

func (h *host) run() error {
	for {
		var err error
		if h.rbuf, err = readFrameInto(h.in, h.rbuf, DefaultMaxFrame); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		var req request
		if err := h.cod.DecodeRequest(h.rbuf, &req); err != nil {
			return err
		}
		resp := response{ID: req.ID}
		next := h.cod
		closing := false
		switch req.Op {
		case opInit:
			next = h.handleInit(&req, &resp)
		case opClose:
			closing = true
		case opPing:
			// Liveness probe: answered before and after init, touching no
			// engine state and producing no events — the response itself is
			// the proof of life the fleet prober wants.
		default:
			h.handleOp(&req, &resp)
		}
		ev := h.sink.flush()
		resp.Events = ev
		err = h.writeResponse(&resp)
		h.sink.recycle(ev)
		if err != nil {
			return err
		}
		// A negotiated codec switch applies to the frames after the init
		// response — the response itself goes out in the codec the request
		// arrived in, or the client could not read the verdict.
		h.cod = next
		if closing {
			return nil
		}
	}
}

// handleInit builds the shard stack and negotiates the codec, returning the
// codec for every frame after this response. An unknown codec name is
// rejected descriptively before any stack is built: answering in a codec
// the client may not speak would strand it.
func (h *host) handleInit(req *request, resp *response) codec {
	if h.local != nil {
		resp.Err = "backend: worker already initialized"
		return h.cod
	}
	if req.Init == nil {
		resp.Err = "backend: init frame without a config"
		return h.cod
	}
	switch req.Codec {
	case "", CodecJSON:
		resp.Codec = CodecJSON
	case CodecBinary:
		resp.Codec = CodecBinary
	default:
		resp.Err = fmt.Sprintf("backend: worker does not support wire codec %q (supports %q, %q)", req.Codec, CodecJSON, CodecBinary)
		return h.cod
	}
	var err error
	if h.local, err = NewLocal(*req.Init, &h.sink); err != nil {
		resp.Err, resp.Codec = err.Error(), ""
		return h.cod
	}
	if h.sever != nil {
		h.local.SetSever(h.sever)
	}
	if resp.Codec == CodecBinary {
		return newBinaryCodec()
	}
	return h.cod
}

// handleOp executes one post-init operation against the shard stack.
func (h *host) handleOp(req *request, resp *response) {
	if h.local == nil {
		resp.Err = "backend: operation before init"
		return
	}
	switch req.Op {
	case opEnact:
		if req.Desc == nil {
			resp.Err = "backend: enact frame without a descriptor"
			return
		}
		en, err := h.local.Enact(req.Desc)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Enacted = en
		}
	case opStep:
		fired, drained, err := h.local.Step(req.Max)
		resp.Fired, resp.Drained = fired, drained
		if err != nil {
			resp.Err = err.Error()
		}
	case opCancel:
		if err := h.local.Cancel(req.Key, req.Reason); err != nil {
			resp.Err = err.Error()
		}
	case opIncomplete:
		if err := h.local.Incomplete(req.Key); err != nil {
			resp.Diag = err.Error()
		}
	case opFeedback:
		if req.Report == nil {
			resp.Err = "backend: feedback frame without a report"
			return
		}
		if err := h.local.Feedback(req.Report); err != nil {
			resp.Err = err.Error()
		}
	case opDerive:
		if req.Workload == nil || req.Config == nil {
			resp.Err = "backend: derive frame without a workload and strategy config"
			return
		}
		s, err := h.local.Derive(req.Workload, *req.Config)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Strategy = &s
		}
	case opInject:
		if req.Chaos == nil {
			resp.Err = "backend: inject frame without a chaos event"
			return
		}
		if err := h.local.Inject(*req.Chaos); err != nil {
			resp.Err = err.Error()
		}
	default:
		resp.Err = fmt.Sprintf("backend: unknown operation %q", req.Op)
	}
}

// writeResponse encodes and writes one response as a single contiguous
// frame (header and payload in one Write) from the host's reused buffer.
func (h *host) writeResponse(resp *response) error {
	var err error
	h.wbuf = h.wbuf[:4]
	if h.wbuf, err = h.cod.AppendResponse(h.wbuf, resp); err != nil {
		return err
	}
	if err := finishFrame(h.wbuf, DefaultMaxFrame); err != nil {
		return err
	}
	_, err = h.out.Write(h.wbuf)
	return err
}

// ServeIfWorker checks WorkerEnv and, when set, serves the worker protocol
// on stdin/stdout and exits the process with the serve verdict. Programs
// that want to self-host their workers call it (via aimes.WorkerMain) at
// the top of main, before any other work.
func ServeIfWorker() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "aimes-worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// ServeConfig configures a TCP worker host (ListenAndServe,
// ServeListener).
type ServeConfig struct {
	// Secret is the shared handshake secret; serving refuses to start
	// without one.
	Secret string
	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
}

// ListenAndServe hosts worker shards over TCP: every authenticated
// connection runs one independent shard stack (one Serve session), so a
// single host process serves a whole environment's worth of shards — or
// several environments'. It blocks until the listener fails.
func ListenAndServe(addr string, cfg ServeConfig) error {
	if addr == "" {
		return fmt.Errorf("backend: ListenAndServe: empty listen address")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if cfg.Logf != nil {
		cfg.Logf("aimes-worker: listening on %s", ln.Addr())
	}
	return ServeListener(ln, cfg)
}

// ServeListener is ListenAndServe over an existing listener (tests use it
// with a port-0 listener). A failed connection — handshake rejection,
// protocol violation, codec garbage — ends that connection's shard only;
// the host keeps serving. It returns when the listener closes.
func ServeListener(ln net.Listener, cfg ServeConfig) error {
	if cfg.Secret == "" {
		return fmt.Errorf("backend: refusing to host TCP workers without a shared secret (set --secret or $AIMES_WORKER_SECRET)")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go func(nc net.Conn) {
			defer nc.Close()
			if err := hostHandshake(nc, cfg.Secret, 10*time.Second); err != nil {
				logf("aimes-worker: %s: handshake failed: %v", nc.RemoteAddr(), err)
				return
			}
			logf("aimes-worker: %s: shard connected", nc.RemoteAddr())
			if err := serveStream(nc, nc, func() { nc.Close() }); err != nil {
				logf("aimes-worker: %s: shard failed: %v", nc.RemoteAddr(), err)
				return
			}
			logf("aimes-worker: %s: shard closed", nc.RemoteAddr())
		}(nc)
	}
}
