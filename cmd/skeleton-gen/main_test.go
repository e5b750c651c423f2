package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// twoStageJSON is a JSON skeleton application: three 60-second tasks whose
// outputs one 30-second task gathers.
const twoStageJSON = `{
  "name": "two-stage",
  "stages": [
    {"name": "a", "tasks": 3, "duration_s": {"dist": "constant", "value": 60}, "output_bytes": {"dist": "constant", "value": 1024}},
    {"name": "b", "tasks": 1, "inputs": "gather", "duration_s": {"dist": "constant", "value": 30}, "output_bytes": {"dist": "constant", "value": 512}}
  ]
}`

// linearText is a text skeleton application: normally distributed durations
// and an output size linear in each task's duration.
const linearText = `name = linear
stage = sim
tasks = 4
duration = normal 600 60
output = linear duration_s 1000 0
`

func writeApp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func generate(t *testing.T, config, format string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, config, 16, "uniform", format, 1); err != nil {
		t.Fatalf("-format %s: %v", format, err)
	}
	return out.String()
}

// TestFormats runs a JSON application through every output format.
func TestFormats(t *testing.T) {
	app := writeApp(t, "app.json", twoStageJSON)

	var doc struct {
		Tasks []struct {
			ID   string   `json:"id"`
			Deps []string `json:"deps"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(generate(t, app, "json")), &doc); err != nil {
		t.Fatalf("json: %v", err)
	}
	if len(doc.Tasks) != 4 || len(doc.Tasks[3].Deps) != 3 {
		t.Fatalf("json: %+v, want four tasks, the last depending on the first three", doc.Tasks)
	}

	shell := generate(t, app, "shell")
	if !strings.HasPrefix(shell, "#!/bin/sh\n") || strings.Count(shell, "sleep 60.000") != 3 || strings.Count(shell, "sleep 30.000") != 1 {
		t.Fatalf("shell:\n%s", shell)
	}

	dot := generate(t, app, "dot")
	if !strings.HasPrefix(dot, `digraph "two-stage" {`) || strings.Count(dot, "->") != 3 {
		t.Fatalf("dot:\n%s", dot)
	}

	if got := generate(t, app, "summary"); !strings.HasPrefix(got, "two-stage: 4 tasks, 2 stages, mean task 52s") {
		t.Fatalf("summary: %q", got)
	}

	var out bytes.Buffer
	if err := run(&out, app, 16, "uniform", "yaml", 1); err == nil || !strings.Contains(err.Error(), `unknown format "yaml"`) {
		t.Fatalf("-format yaml: %v", err)
	}
}

// TestTextApp: a text application's normal durations vary from task to task
// and each output is 1000 bytes per second of its task's duration.
func TestTextApp(t *testing.T) {
	shell := generate(t, writeApp(t, "app.skel", linearText), "shell")
	steps := regexp.MustCompile(`sleep ([0-9.]+) && head -c ([0-9]+) /dev/zero`).FindAllStringSubmatch(shell, -1)
	if len(steps) != 4 {
		t.Fatalf("%d tasks in:\n%s", len(steps), shell)
	}
	durations := map[string]bool{}
	for _, s := range steps {
		secs, _ := strconv.ParseFloat(s[1], 64)
		size, _ := strconv.ParseFloat(s[2], 64)
		if d := size - 1000*secs; d < -1 || d > 1 {
			t.Fatalf("task sleeping %ss writes %s bytes, want 1000 per second", s[1], s[2])
		}
		durations[s[1]] = true
	}
	if len(durations) < 2 {
		t.Fatalf("normal durations all equal: %v", durations)
	}
}

// TestTextAppKeyOutsideStage: a stage key before any stage line is refused
// with its line number.
func TestTextAppKeyOutsideStage(t *testing.T) {
	app := writeApp(t, "bad.skel", "name = bad\ntasks = 4\n")
	err := run(&bytes.Buffer{}, app, 16, "uniform", "json", 1)
	if err == nil || !strings.Contains(err.Error(), `line 2: "tasks" outside a stage`) {
		t.Fatalf("err = %v, want line 2's tasks refused", err)
	}
}
