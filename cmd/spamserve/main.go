// Command spamserve runs the interpretation service: a persistent
// multi-tenant HTTP server executing SPAM scene interpretations over
// one shared task-process pool, with per-request isolation, admission
// control and graceful drain (see docs/SERVING.md).
//
// Usage:
//
//	spamserve [-addr :8641] [-workers N] [-max-concurrent N]
//	          [-max-queued N] [-per-tenant N] [-deadline D]
//	          [-cache-regions N] [-quarantine-budget N] [-allow-faults]
//	          [-sched fifo|largest|postorder] [-mem-budget BYTES]
//	          [-max-sessions N] [-cluster-workers N]
//
// -cluster-workers N backs named-scene /interpret requests with N
// worker processes over the cluster runtime (-workers becomes each
// process's local pool size; see docs/CLUSTER.md); inline scenes and
// sessions stay on the in-process shared pool. /stats then reports
// total and per-request shipped wire bytes.
//
// Endpoints:
//
//	POST   /interpret     one interpretation (named or inline scene)
//	POST   /session       open an incremental session (interpret + keep the results)
//	POST   /update        apply a scene delta to a session
//	DELETE /session/{id}  close a session
//	GET    /healthz       liveness + shared-pool quarantine budget
//	GET    /stats         counters, cache/eviction/session stats, recent requests
//
// SIGINT/SIGTERM starts a graceful drain: new requests are refused
// with 503, in-flight interpretations run to completion, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spampsm/internal/cluster"
	"spampsm/internal/core"
	"spampsm/internal/serve"
	"spampsm/internal/tlp"
)

func main() {
	cluster.MaybeWorker()
	os.Exit(realMain())
}

func realMain() int {
	addr := flag.String("addr", ":8641", "listen address")
	workers := flag.Int("workers", 4, "shared pool task processes")
	maxConcurrent := flag.Int("max-concurrent", 0, "in-flight interpretation limit (0 = 2x workers)")
	maxQueued := flag.Int("max-queued", 0, "admission wait-queue bound before shedding (0 = 4x max-concurrent)")
	perTenant := flag.Int("per-tenant", 0, "per-tenant in-flight cap (0 = unlimited)")
	deadline := flag.Duration("deadline", time.Minute, "default per-request deadline")
	cacheRegions := flag.Int("cache-regions", 4096, "inline-scene cache size cap (total regions)")
	quarantine := flag.Int("quarantine-budget", 32, "quarantined tasks from live uninjected runs tolerated before /healthz degrades (0 = unlimited)")
	allowFaults := flag.Bool("allow-faults", false, "accept per-request fault-injection plans (chaos testing)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "maximum graceful-drain wait on shutdown")
	sched := flag.String("sched", "fifo", "task scheduling policy: fifo, largest or postorder")
	memBudget := flag.Float64("mem-budget", 0, "aggregate in-flight task footprint budget in simulated bytes (0 = unbounded)")
	maxSessions := flag.Int("max-sessions", 0, "live incremental-session bound, LRU-evicted (0 = default 8)")
	clusterWorkers := flag.Int("cluster-workers", 0, "execute named-scene requests across N worker processes (0 = in-process pool)")
	flag.Parse()

	policy, err := tlp.ParseQueuePolicy(*sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spamserve:", err)
		return 2
	}

	var clusterBackend tlp.Queue
	if *clusterWorkers > 0 {
		co, err := cluster.Start(cluster.Config{
			Workers:      *clusterWorkers,
			LocalWorkers: *workers,
			MemBudget:    *memBudget,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "spamserve:", err)
			return 1
		}
		defer co.Close()
		for _, name := range []string{"SF", "DC", "MOFF"} {
			spec, err := core.ClusterSpec(name)
			if err == nil {
				err = co.RegisterDataset(spec)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "spamserve:", err)
				return 1
			}
		}
		clusterBackend = co
		fmt.Fprintf(os.Stderr, "spamserve: cluster backend up: %d worker processes x %d local workers\n",
			*clusterWorkers, *workers)
	}

	srv := serve.New(serve.Config{
		Workers:           *workers,
		MaxConcurrent:     *maxConcurrent,
		MaxQueued:         *maxQueued,
		PerTenantMax:      *perTenant,
		DefaultDeadline:   *deadline,
		SceneCacheRegions: *cacheRegions,
		QuarantineBudget:  *quarantine,
		AllowFaults:       *allowFaults,
		Sched:             policy,
		MemBudget:         *memBudget,
		MaxSessions:       *maxSessions,
		Cluster:           clusterBackend,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "spamserve: listening on %s (%d workers)\n", *addr, *workers)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "spamserve:", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "spamserve: %v: draining\n", sig)
	}

	// Graceful drain: stop admitting (both at the listener and at the
	// admission gate), let in-flight interpretations finish, then shut
	// the shared pool down.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "spamserve: shutdown:", err)
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "spamserve: drained")
	return 0
}
