// Command aimes-worker hosts simulation shards for a sharded aimes
// Environment built with WithWorkerPool.
//
// With no arguments it serves one shard on stdin/stdout as a child OS
// process of the parent environment — the stdio transport. The parent
// opens with the handshake, one JSON frame carrying the shard
// configuration (seed, testbed, middleware overheads) and the versioned
// binary layout it speaks; the worker answers with the layout echoed, or
// with a refusal naming the one it supports. Every later frame is binary:
// the parent drives enactment and stepping, and trace events and
// completion reports stream back on every response. Logs go to stderr,
// which the parent passes through. This mode is never run by hand:
//
//	env, _ := aimes.NewEnv(aimes.WithShards(4),
//		aimes.WithWorkerPool(aimes.WorkerPool{Command: []string{"aimes-worker"}}))
//
// With the serve subcommand it hosts shards over TCP instead, one
// independent shard per authenticated connection — the first step toward a
// multi-host fleet:
//
//	openssl rand -hex 16 > secret.txt
//	aimes-worker serve --listen :9464 --secret-file secret.txt
//
// and on the client side:
//
//	env, _ := aimes.NewEnv(aimes.WithShards(4),
//		aimes.WithWorkerPool(aimes.WorkerPool{
//			Endpoints: []aimes.WorkerEndpoint{{Addr: "fleet-3:9464"}},
//			Secret:    secret,
//		}))
//
// The serve secret resolves in precedence order: --secret, --secret-file,
// $AIMES_WORKER_SECRET, then a file named by $AIMES_WORKER_SECRET_FILE.
// File contents are trimmed of surrounding whitespace. The NewEnv side
// honors the same two environment variables when WorkerPool.Secret is
// empty. Connections authenticate with the shared secret (HMAC
// challenge/response; the secret never crosses the wire) but are not
// encrypted — no TLS yet — so serve on trusted networks only.
//
// In either mode, -pprof ADDR also serves net/http/pprof on a listener of
// its own and logs "pprof on http://ADDR/debug/pprof/" to stderr (off by
// default): a stdio worker takes it as its one flag, serve with the others.
//
// Programs can instead self-host stdio workers without this binary by
// calling aimes.WorkerMain() at the top of main.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"aimes/internal/backend"
	"aimes/internal/profiling"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serve(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet("aimes-worker", flag.ContinueOnError)
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (off when empty)")
	if err := fs.Parse(os.Args[1:]); err != nil || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "aimes-worker: unknown arguments %q: run with no arguments but -pprof (stdio worker, spawned by an aimes Environment) or `aimes-worker serve --listen ADDR`\n", os.Args[1:])
		os.Exit(2)
	}
	if prof := servePprof("aimes-worker", *pprofAddr); prof != nil {
		defer prof.Close()
	}
	if err := backend.Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "aimes-worker: %v\n", err)
		os.Exit(1)
	}
}

func serve(args []string) {
	fs := flag.NewFlagSet("aimes-worker serve", flag.ExitOnError)
	listen := fs.String("listen", "", "TCP address to listen on, e.g. :9464 or 127.0.0.1:9464")
	secret := fs.String("secret", "", "shared handshake secret (prefer --secret-file; falls back to $AIMES_WORKER_SECRET, then $AIMES_WORKER_SECRET_FILE)")
	secretFile := fs.String("secret-file", "", "file holding the shared handshake secret (surrounding whitespace trimmed)")
	quiet := fs.Bool("quiet", false, "suppress per-connection log lines")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address, a listener of its own (off when empty)")
	_ = fs.Parse(args)
	if *listen == "" {
		fmt.Fprintln(os.Stderr, "aimes-worker serve: --listen is required")
		fs.Usage()
		os.Exit(2)
	}
	key, err := resolveSecret(*secret, *secretFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aimes-worker serve: %v\n", err)
		os.Exit(2)
	}
	servePprof("aimes-worker serve", *pprofAddr) // serves until the process exits
	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	err = backend.ListenAndServe(*listen, backend.ServeConfig{Secret: key, Logf: logf})
	fmt.Fprintf(os.Stderr, "aimes-worker serve: %v\n", err)
	os.Exit(1)
}

// servePprof starts the -pprof listener when addr is set (nil otherwise),
// and exits if it cannot bind.
func servePprof(who, addr string) *profiling.Server {
	if addr == "" {
		return nil
	}
	prof, err := profiling.Listen(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: -pprof: %v\n", who, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", who, prof.Addr())
	return prof
}

// resolveSecret picks the handshake secret by precedence: --secret, then
// --secret-file, then $AIMES_WORKER_SECRET, then a file named by
// $AIMES_WORKER_SECRET_FILE. File contents are trimmed of surrounding
// whitespace so a trailing newline (echo, openssl rand) is harmless. An
// empty result is allowed here — ListenAndServe refuses it with its own
// descriptive error.
func resolveSecret(flagSecret, flagFile string) (string, error) {
	if flagSecret != "" {
		return flagSecret, nil
	}
	if flagFile != "" {
		b, err := os.ReadFile(flagFile)
		if err != nil {
			return "", fmt.Errorf("reading --secret-file: %v", err)
		}
		return strings.TrimSpace(string(b)), nil
	}
	return backend.SecretFromEnv()
}
