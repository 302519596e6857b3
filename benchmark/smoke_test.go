package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke drives all four workloads end to end at toy size — a spawned
// fastd, the closed loops, the oracle and byte-identity checks, the traced
// run with every per-layer probe (restart and shard failover included) — so
// the harness cannot rot unnoticed. Numbers are not judged here, only that
// every declared metric is produced and every operation is correct.
// mustMeasure lists, per workload, per-layer metrics whose probes must have
// produced a number in a traced run: a 0 there is a probe that silently did
// not run, not a cell that does not apply.
var mustMeasure = map[string][]string{
	"": { // every workload
		"ring.ntt_fwd_us", "rns.convert_us", "ckks.ks_switch_ms", "ckks.mul_ms", "ckks.keygen_ms", "ckks.ct_kb",
		"costmodel.ks_modops", "ckks.keyswitch_per_op", "fast.newcontext_ms",
	},
	wlServeHot: {
		"fast.execute_ms", "fastd.eval_ms", "fastd.http_floor_ms", "fastd.restart_restore_ms", "fastd.failover_ms",
		"fastd.wire_kb_per_op", "fastd.disk_mb", "fastd.journal_mb_per_kop", "serve.service_ms",
		"hemera.getorfill_hit_ns", "bench.client_cpu_ms_per_op",
	},
	wlServeChurn: {
		"fastd.eval_ms", "fastd.restart_restore_ms", "fastd.failover_ms", "fastd.restore_p50_ms",
		"fastd.create_p50_ms", "fastd.restore_first_ms", "hemera.shared_hit_share",
	},
	wlLibDeep:      {"fast.execute_ms", "fast.snapshot_mb", "costmodel.plan_units", "fast.batch4_speedup"},
	wlLibBootstrap: {"ckks.bootstrap_ms", "ckks.lintrans_ms", "ckks.polyeval_ms", "sim.bootstrap_ms", "sim.speedup_vs_sharp"},
}

func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal)
	for _, name := range workloadNames {
		if name == wlLibBootstrap && testing.Short() {
			continue // a bootstrap context and its key set take seconds even at log_n 10
		}
		for _, trace := range []bool{false, true} {
			mode := "e2e"
			if trace {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				env := &runEnv{root: root, outDir: outDir, seed: 11, size: toySizing, clients: clientCount(), maxOps: 6}
				o := options{seconds: 60, trace: trace}
				rec, err := runWorkload(env, name, o, spec, stop)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
					t.Fatalf("result: %+v", rec.Result)
				}
				defs := spec.EndToEnd
				if trace {
					defs = spec.PerLayer
					if _, err := os.Stat(filepath.Join(outDir, name+".trace.json")); err != nil {
						t.Errorf("traced run wrote no span file: %v", err)
					}
				}
				for _, d := range defs {
					v, ok := rec.Result.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing from the result", d.Name)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v.Value)
					}
				}
				if trace {
					for _, n := range append(append([]string(nil), mustMeasure[""]...), mustMeasure[name]...) {
						if rec.Result.Metrics[n].Value == 0 {
							t.Errorf("per-layer metric %s was not measured on %s", n, name)
						}
					}
				}
				if len(rec.Result.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(rec.Result.Metrics), len(defs))
				}
			})
		}
	}
}
