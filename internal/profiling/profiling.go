// Package profiling serves Go's runtime profiles (net/http/pprof) on demand,
// for the daemons' -pprof flag: on a listener and mux of their own, never on
// a listener that carries the API.
package profiling

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Server serves /debug/pprof/ on its own listener until Close.
type Server struct {
	ln   net.Listener
	hs   *http.Server
	done chan struct{}
}

// Listen binds addr (":0" picks a free port) and serves /debug/pprof/ there.
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, hs: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed once Close is called
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops serving, drops open connections (a CPU profile in progress
// among them) and returns once the serving goroutine has exited.
func (s *Server) Close() error {
	err := s.hs.Close()
	<-s.done
	return err
}
