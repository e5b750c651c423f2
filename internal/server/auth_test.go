package server

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tokenFile writes content to a token file in a fresh directory.
func tokenFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadTokenFile: comment and blank lines are skipped, lines of two,
// three and four fields parse with omitted quotas falling back to the
// default, and Tenants lists the tenants in file order.
func TestLoadTokenFile(t *testing.T) {
	def := Quota{MaxInFlight: 7, MaxQueued: 3}
	path := tokenFile(t, `# tenant token [max_inflight [max_queued]]

zed   tok-z
  # indented comment
alice tok-a 10
bob.b tok-b 0 2
`)
	auth, err := LoadTokenFile(path, def)
	if err != nil {
		t.Fatal(err)
	}
	want := []Tenant{
		{Name: "zed", Quota: def},
		{Name: "alice", Quota: Quota{MaxInFlight: 10, MaxQueued: 3}},
		{Name: "bob.b", Quota: Quota{MaxInFlight: 0, MaxQueued: 2}},
	}
	if got := auth.Tenants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenants %+v, want %+v", got, want)
	}
}

// TestLoadTokenFileRejects: every malformed file is refused with an error
// that names its cause — and, for a bad line, the file and line.
func TestLoadTokenFileRejects(t *testing.T) {
	for _, tc := range []struct {
		name, content, want string
	}{
		{"one field", "# tenants\nalice\n", ":2: want"},
		{"five fields", "alice tok 1 2 3\n", ":1: want"},
		{"negative max_inflight", "alice tok -1\n", `:1: bad max_inflight "-1"`},
		{"non-numeric max_queued", "alice tok 1 many\n", `:1: bad max_queued "many"`},
		{"invalid tenant name", "al/ice tok\n", `invalid tenant name "al/ice"`},
		{"shared token", "alice tok\nbob tok\n", `tenants "alice" and "bob" share a token`},
		{"duplicate tenant", "alice tok-1\nalice tok-2\n", `duplicate tenant "alice"`},
		{"empty file", "# nobody\n\n", "defines no tenants"},
	} {
		path := tokenFile(t, tc.content)
		_, err := LoadTokenFile(path, Quota{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		} else if strings.HasPrefix(tc.want, ":") && !strings.Contains(err.Error(), path+tc.want) {
			t.Errorf("%s: err = %v, want it at %s%s", tc.name, err, path, tc.want[:2])
		}
	}
	missing := filepath.Join(t.TempDir(), "absent")
	if _, err := LoadTokenFile(missing, Quota{}); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("missing file: err = %v, want one naming it", err)
	}
}
