// Command skeleton-gen is the Application Skeleton tool: it reads a skeleton
// application description (JSON) or synthesizes a bag-of-tasks, generates
// the concrete workload, and emits it in one of the original tool's output
// modes: a sequential shell script, a JSON structure for middleware, or a
// Graphviz DAG.
//
// Usage:
//
//	skeleton-gen -config app.json -format shell > run.sh
//	skeleton-gen -tasks 64 -duration gaussian -format dot | dot -Tpng > dag.png
//	skeleton-gen -config app.json -format json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"aimes"
)

func main() {
	var (
		config   = flag.String("config", "", "skeleton application config, JSON (.json) or text (default: generated bag-of-tasks)")
		tasks    = flag.Int("tasks", 16, "bag-of-tasks size when no -config is given")
		duration = flag.String("duration", "uniform", "task durations: uniform (15m) or gaussian (1-30m)")
		format   = flag.String("format", "json", "output: shell, json (middleware interchange), dot or summary")
		seed     = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()

	if err := run(os.Stdout, *config, *tasks, *duration, *format, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "skeleton-gen:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, config string, tasks int, duration, format string, seed int64) error {
	var app aimes.AppSpec
	switch {
	case config != "":
		f, err := os.Open(config)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(config, ".json") {
			app, err = aimes.ParseAppJSON(f)
		} else {
			app, err = aimes.ParseAppText(f)
		}
		if err != nil {
			return err
		}
	case duration == "gaussian":
		app = aimes.BagOfTasks(tasks, aimes.GaussianDuration())
	case duration == "uniform":
		app = aimes.BagOfTasks(tasks, aimes.UniformDuration())
	default:
		return fmt.Errorf("unknown duration kind %q", duration)
	}

	w, err := aimes.GenerateWorkload(app, seed)
	if err != nil {
		return err
	}
	switch format {
	case "shell":
		return w.WriteShell(out)
	case "json":
		return w.WriteMiddlewareJSON(out)
	case "dot":
		return w.WriteDOT(out)
	case "summary":
		_, err := fmt.Fprintln(out, w.Summary())
		return err
	}
	return fmt.Errorf("unknown format %q", format)
}
