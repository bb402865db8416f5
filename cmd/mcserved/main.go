// Command mcserved is the Meta-Chaos coupling daemon: it listens on a
// TCP or unix-domain socket and serves tenant sessions that register
// distributions, open couplings and stream moves, multiplexing them
// onto shared resident worlds with cross-tenant schedule caching.
//
// Quick start (unix socket):
//
//	mcserved -network unix -addr /tmp/mcserved.sock
//	mcload   -network unix -addr /tmp/mcserved.sock -tenants 4 -moves 32
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metachaos/internal/serve"
)

func main() {
	var (
		network  = flag.String("network", "unix", "listen network: unix or tcp")
		addr     = flag.String("addr", "/tmp/mcserved.sock", "listen address (socket path or host:port)")
		sessions = flag.Int("max-sessions", 0, "max concurrent tenant sessions (0 = default)")
		inflight = flag.Int("max-inflight", 0, "max moves in flight across all tenants (0 = default)")
		batch    = flag.Int("max-batch", 0, "max ops per world broadcast (0 = default)")
		flush    = flag.Duration("flush", 0, "longest a batch waits on a quiet tenant; one with an op from every tenant ships at once (0 = default, negative disables batching)")
		procs    = flag.Int("max-procs", 0, "max processes per distribution side (0 = default)")
		lease    = flag.Duration("lease", 0, "session lease TTL (0 = default, negative disables expiry)")
		journal  = flag.Int("max-journal", 0, "per-coupling respawn journal bound (0 = default, negative disables)")
		cacheCap = flag.Int("cache-entries", 0, "per-rank schedule cache bound with LRU eviction (0 = default, negative = unbounded)")
		panicAt  = flag.Int("panic-batch", 0, "chaos: first incarnation of every world panics at this batch (0 = off)")
		quiet    = flag.Bool("quiet", false, "suppress lifecycle logging")
	)
	flag.Parse()

	if *network == "unix" {
		// A stale socket file from a dead daemon blocks the listen.
		os.Remove(*addr)
	}
	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	var worldPanic func(srcProcs, dstProcs, incarnation int) int
	if *panicAt > 0 {
		worldPanic = func(_, _, inc int) int {
			if inc == 0 {
				return *panicAt
			}
			return 0
		}
	}
	srv := serve.NewServer(serve.Options{
		MaxSessions:  *sessions,
		MaxInflight:  *inflight,
		MaxBatch:     *batch,
		FlushWindow:  *flush,
		MaxProcs:     *procs,
		Lease:        *lease,
		MaxJournal:   *journal,
		CacheEntries: *cacheCap,
		WorldPanic:   worldPanic,
		Logf:         logf,
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logf("mcserved: %v, shutting down", s)
		srv.Close()
		if *network == "unix" {
			os.Remove(*addr)
		}
	}()

	ln, err := net.Listen(*network, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mcserved: listening on %s %s\n", *network, *addr)
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
		os.Exit(1)
	}
	// Give the signal goroutine a beat to finish its cleanup message.
	time.Sleep(10 * time.Millisecond)
}
