// Command bhserve is the multi-tenant simulation service: a daemon
// exposing the steppable session lifecycle over HTTP. Sessions are
// placed on the least-loaded of a fixed set of worker shards with
// bounded queues (backpressure is explicit: 429 with Retry-After when a
// shard is full, 503 while draining), snapshot streams fan out from one
// stepper per session to any number of NDJSON subscribers, and completed
// runs land in a shared content-addressed cache so an identical later
// create is answered without re-simulating.
//
//	bhserve -addr :8080 -shards 4 -queue 64
//
//	curl -s localhost:8080/sims -d '{"options":{"bodies":2048,"steps":8}}'
//	curl -s -X POST localhost:8080/sims/s-1/step?k=2
//	curl -sN localhost:8080/sims/s-1/stream | jq .step
//	curl -s localhost:8080/stats | jq .runner
//
// With -store DIR the daemon is crash-safe (DESIGN.md §12.6): live
// sessions are auto-checkpointed into a durable on-disk store every
// -ckpt-every steps and/or -ckpt-interval of wall clock, and a restart
// pointed at the same store re-admits every recoverable session at its
// newest checkpoint — resumable via GET /sims discovery even after
// kill -9.
//
//	bhserve -store /var/lib/bhserve -ckpt-every 50 -ckpt-interval 30s
//
// SIGINT/SIGTERM drain gracefully: admissions stop, in-flight steps
// finish, every session is finished and released, then the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"upcbh/internal/bench"
	"upcbh/internal/serve"
	"upcbh/internal/store"
)

const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's listener-facing server. A client
// gets readHeaderTimeout to deliver its request headers and an idle
// keep-alive connection is dropped after idleTimeout, so a peer that
// opens connections and says nothing cannot hold them forever. There is
// deliberately no WriteTimeout: /stream responses live as long as their
// session, and a per-write deadline for them is separate work.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		shards  = flag.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "per-shard request queue depth (0 = 64)")
		subbuf  = flag.Int("subbuf", 0, "per-subscriber snapshot buffer (0 = 8)")
		every   = flag.Int("every", 0, "default steps between streamed snapshots (0 = 1)")
		workers = flag.Int("workers", 0, "runner worker pool size (0 = GOMAXPROCS)")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")

		storeDir  = flag.String("store", "", "durable checkpoint store directory (empty = no durability)")
		ckptEvery = flag.Int("ckpt-every", 0,
			"auto-checkpoint each session every N steps (0 = disabled; requires -store)")
		ckptInterval = flag.Duration("ckpt-interval", 0,
			"auto-checkpoint each session at this wall-clock interval, evaluated at step boundaries (0 = disabled; requires -store)")
		ckptKeep = flag.Int("ckpt-keep", 0,
			"checkpoints retained per session key in the store (0 = 2)")
		maxRestore = flag.Int64("max-restore-bytes", 0,
			"POST /sims/restore upload cap in bytes; larger uploads get 413 (0 = 1 GiB)")
	)
	flag.Parse()
	if args := flag.Args(); len(args) > 0 {
		fmt.Fprintf(os.Stderr, "bhserve: unexpected arguments: %v\n", args)
		os.Exit(2)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	runner := bench.NewRunner(*workers)
	runner.Progress = func(format string, args ...any) { logf("runner: "+format, args...) }

	var ckptStore *store.Store
	if *storeDir != "" {
		var err error
		ckptStore, err = store.Open(*storeDir, store.Options{
			Keep: *ckptKeep,
			Logf: func(format string, args ...any) { logf("store: "+format, args...) },
		})
		if err != nil {
			log.Fatalf("bhserve: open store: %v", err)
		}
	} else if *ckptEvery > 0 || *ckptInterval > 0 {
		log.Fatal("bhserve: -ckpt-every/-ckpt-interval require -store")
	}

	srv := serve.New(serve.Config{
		Shards:          *shards,
		QueueDepth:      *queue,
		SubBuffer:       *subbuf,
		StreamEvery:     *every,
		Runner:          runner,
		Logf:            logf,
		Store:           ckptStore,
		CkptEvery:       *ckptEvery,
		CkptInterval:    *ckptInterval,
		MaxRestoreBytes: *maxRestore,
	})
	httpSrv := newHTTPServer(*addr, srv.Handler())

	errCh := make(chan error, 1)
	go func() {
		logf("bhserve: listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		logf("bhserve: %v: draining", got)
		// Order matters: drain the service first — finishing sessions
		// closes their hubs, which ends the open stream responses — then
		// shut the HTTP listener down.
		srv.Shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logf("bhserve: http shutdown: %v", err)
		}
		logf("bhserve: drained, exiting")
	case err := <-errCh:
		log.Fatalf("bhserve: %v", err)
	}
}
