// Command fastd serves homomorphic evaluation over JSON/HTTP with production
// degradation semantics: a bounded admission queue in front of a fixed
// evaluator pool, deadline-aware load shedding, per-request cancellation
// threaded down into the CKKS kernels, and graceful drain on SIGINT/SIGTERM.
//
// Usage: `fastd -h` lists every flag with its default.
//
// With -state-dir set, fastd is crash-safe: sessions are write-ahead
// snapshotted (fsync + atomic rename) before the create response, restored
// lazily after a restart, LRU-evicted to disk past -max-resident-sessions or
// after -session-ttl idle, and requests carrying an Idempotency-Key header
// are exactly-once across restarts (completed outcomes are journaled before
// release and replayed to retries). Corrupt snapshots are detected by
// checksum, skipped with a 410 and counted — never restored.
//
// Endpoints:
//
//	GET  /healthz                     liveness (always ok while the process runs)
//	GET  /readyz                      readiness (503 while draining, full or every shard fenced)
//	POST /v1/sessions                 create a keyspace {log_n, levels, rotations, ...}
//	DELETE /v1/sessions/{id}          drop a keyspace
//	POST /v1/sessions/{id}/encrypt    {values:[{re,im},...]} -> {ciphertext}
//	POST /v1/sessions/{id}/decrypt    {ciphertext} -> {values}
//	POST /v1/sessions/{id}/eval       {inputs, program} -> {ciphertext}; program is a fast.Program v2 object
//	GET  /debug/requests              in-flight request table (id, phase, age, deadline)
//	GET  /debug/plans                 retained plan-execution records (batch, request IDs)
//	GET  /metrics, /debug/...         observability surface (Prometheus, pprof, traces)
//
// Requests may carry an X-Deadline-Ms header; the admission layer sheds
// requests whose deadline is provably unmeetable (HTTP 504) instead of
// queuing them to time out. A full queue returns 429, a draining server 503.
//
// Every request is correlated end to end: a client-provided X-Request-Id (or
// the trace-id of a W3C traceparent header) is honored, otherwise an ID is
// assigned; the ID is echoed on the response, logged in the JSON access log,
// listed on /debug/requests while in flight, and attached to every Chrome-
// trace span the request causes, down to the key-switch phases.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/obs"
)

// Test hooks, mirroring cmd/fastsim: httpStarted observes the bound address
// once serving begins, httpWait blocks until shutdown should start.
var (
	httpStarted = func(net.Addr) {}
	httpWait    = func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		signal.Stop(ch)
	}
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fastd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
	shards := fs.Int("shards", 1, "failure-isolated serving shards behind the listener")
	workers := fs.Int("workers", 2, "concurrent evaluation workers per shard")
	queue := fs.Int("queue", 0, "admission queue depth per shard (0 = 4x workers)")
	maxSessions := fs.Int("max-sessions", 16, "maximum sessions (resident + persisted)")
	stateDir := fs.String("state-dir", "", "directory for crash-safe session snapshots and idempotency journals (empty disables durability)")
	maxResident := fs.Int("max-resident-sessions", 0, "sessions held in memory before LRU eviction to -state-dir (0 = -max-sessions)")
	sessionTTL := fs.Duration("session-ttl", 0, "evict sessions idle longer than this to -state-dir (0 disables)")
	evkBudgetMB := fs.Int("evk-budget-mb", 256, "shared evaluation-key cache budget in MiB")
	probeInterval := fs.Duration("shard-probe-interval", time.Second, "shard supervisor health-probe interval (shards >= 2)")
	probeTimeout := fs.Duration("shard-probe-timeout", time.Second, "per-probe timeout before it counts as a failure")
	fenceThreshold := fs.Int("shard-fence-threshold", 5, "consecutive probe failures that fence a shard")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain bound on shutdown")
	logLevel := fs.String("log-level", "info", "access-log level: debug, info, warn or error")
	accessLog := fs.String("access-log", "stderr", "access-log destination: stderr, stdout, none, or a file path (appended)")
	slowRequestMs := fs.Int("slow-request-ms", 0, "warn-level slow-request record above this many milliseconds (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logW, closeLog, err := openAccessLog(*accessLog)
	if err != nil {
		return err
	}
	defer closeLog()

	d, err := newDaemon(daemonConfig{
		Shards:         *shards,
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxSessions:    *maxSessions,
		StateDir:       *stateDir,
		MaxResident:    *maxResident,
		SessionTTL:     *sessionTTL,
		EvkBudget:      int64(*evkBudgetMB) << 20,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FenceThreshold: *fenceThreshold,
		Observer:       fast.NewTracingObserver(0), // 0: the library's default trace ring
		Logger:         obs.NewLogger(logW, obs.ParseLogLevel(*logLevel)),
		SlowRequest:    time.Duration(*slowRequestMs) * time.Millisecond,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("fastd: listen %s: %w", *addr, err)
	}
	srv := &http.Server{Handler: d.handler()}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stdout, "fastd serving on http://%s (%d shards x %d workers, queue %d)\n",
		ln.Addr(), d.cfg.Shards, d.cfg.Workers, d.cfg.QueueDepth)
	httpStarted(ln.Addr())
	httpWait()

	// Degradation ladder, shutdown edition: stop admitting (ErrDraining),
	// finish queued work bounded by -drain-timeout, then close the listener
	// gracefully (obs.ShutdownServer bounds the HTTP drain too).
	fmt.Fprintln(stdout, "fastd draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := d.drain(drainCtx); err != nil {
		fmt.Fprintf(stdout, "fastd drain incomplete: %v\n", err)
	}
	if err := obs.ShutdownServer(srv, 5*time.Second); err != nil {
		return fmt.Errorf("fastd: shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "fastd stopped")
	return nil
}

// openAccessLog resolves the -access-log flag to a writer plus its closer.
func openAccessLog(dest string) (io.Writer, func(), error) {
	switch dest {
	case "", "none":
		return io.Discard, func() {}, nil
	case "stderr":
		return os.Stderr, func() {}, nil
	case "stdout":
		return os.Stdout, func() {}, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("fastd: open access log: %w", err)
	}
	return f, func() { _ = f.Close() }, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
