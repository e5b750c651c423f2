package profiling

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestListenServesHeapProfile fetches the heap profile in its text form from
// an ephemeral port, then closes the server: its port is free again.
func TestListenServesHeapProfile(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()
	resp, err := http.Get("http://" + addr + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "heap profile:") {
		t.Fatalf("GET heap profile: %s\n%.200s", resp.Status, body)
	}
	if _, err := Listen(addr); err == nil {
		t.Fatal("a second Listen on a bound address succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Listen(addr)
	if err != nil {
		t.Fatalf("the address is still bound after Close: %v", err)
	}
	again.Close()
}
