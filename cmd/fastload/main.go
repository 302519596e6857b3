// Command fastload is the soak and chaos harness for fastd: it drives N
// concurrent sessions with Zipf-distributed reuse at a configurable request
// rate, retries through the daemon's typed HTTP degradation ladder with
// jittered exponential backoff, and — in chaos mode — SIGKILLs and restarts
// the daemon mid-soak while asserting the durability contract:
//
//   - restored sessions decrypt pre-kill ciphertexts byte-for-byte
//     identically to the fault-free reference captured before the kill;
//   - requests in flight across the kill fail with typed ladder errors or
//     transport errors, never silently wrong data;
//   - idempotent retries are exactly-once: a duplicate of a completed eval
//     returns the first response's bytes (fastd re-executes it and checks
//     them against its record), never different ones;
//   - the end-to-end success p99 stays within the configured SLO.
//
// Usage:
//
//	fastload -spawn ./fastd -state-dir /tmp/fastd-state \
//	         -sessions 8 -rps 50 -duration 30s -kills 2 [-report soak.json]
//	fastload -addr http://127.0.0.1:8080 -sessions 4 -rps 20 -duration 10s
//
// With -spawn, fastload owns the daemon process (chaos mode requires this);
// with -addr it soaks an externally managed daemon and -kills must be 0.
// The process exits 0 iff every assertion held; the JSON report (stdout or
// -report) carries the full tally either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fastload", flag.ContinueOnError)
	addr := fs.String("addr", "", "base URL of a running fastd (mutually exclusive with -spawn)")
	spawn := fs.String("spawn", "", "path to a fastd binary to spawn (required for chaos mode)")
	stateDir := fs.String("state-dir", "", "state dir handed to the spawned fastd (default: a temp dir)")
	sessions := fs.Int("sessions", 4, "concurrent sessions")
	rps := fs.Float64("rps", 20, "target aggregate requests per second")
	duration := fs.Duration("duration", 10*time.Second, "soak duration")
	workers := fs.Int("workers", 8, "concurrent client workers")
	zipfS := fs.Float64("zipf-s", 1.2, "Zipf skew for session reuse (>1; higher = hotter head)")
	kills := fs.Int("kills", 0, "SIGKILL+restart cycles spread across the soak (chaos mode)")
	shards := fs.Int("shards", 1, "shards for the spawned fastd (-spawn only)")
	shardKills := fs.Int("shard-kills", 0, "shards to fence mid-soak via the chaos endpoint (must leave a survivor)")
	sloP99 := fs.Duration("slo-p99", 5*time.Second, "success-latency p99 SLO")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	reportPath := fs.String("report", "", "write the JSON report here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := soakConfig{
		Addr:       *addr,
		Spawn:      *spawn,
		StateDir:   *stateDir,
		Sessions:   *sessions,
		RPS:        *rps,
		Duration:   *duration,
		Workers:    *workers,
		ZipfS:      *zipfS,
		Kills:      *kills,
		Shards:     *shards,
		ShardKills: *shardKills,
		SLOP99:     *sloP99,
		Seed:       *seed,
	}
	rep, err := soak(cfg, stdout)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(stdout, string(raw))
	}
	if !rep.Pass {
		return fmt.Errorf("fastload: soak failed: %v", rep.Failures)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
