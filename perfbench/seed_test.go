package main

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/shard"
)

// TestSeedsChangeInputs checks that two seeds draw different inputs for
// every workload, so a claim can be re-checked on a held-out seed.
func TestSeedsChangeInputs(t *testing.T) {
	cells := table1Queries()
	if reflect.DeepEqual(table1Order(search.NewRand(1), cells), table1Order(search.NewRand(2), cells)) {
		t.Error("table1: seeds 1 and 2 draw the same query order")
	}
	if reflect.DeepEqual(genLocal(1, 20).stmts, genLocal(2, 20).stmts) {
		t.Error("local_sql: seeds 1 and 2 draw the same statements")
	}
	_, seq1, _ := servePool(1)
	_, seq2, _ := servePool(2)
	if reflect.DeepEqual(seq1, seq2) {
		t.Error("serve_hot: seeds 1 and 2 draw the same request sequence")
	}
	ring := shard.NewRing([]shard.Member{{ID: "w1"}, {ID: "w2"}}, shard.DefaultVNodes)
	s1, err := tierSchedule(1, 100, ring)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := tierSchedule(2, 100, ring)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1, s2) {
		t.Error("tier_cold: seeds 1 and 2 draw the same schedule")
	}
}

// exercised lists, per workload, per-layer metrics that must be positive
// in a traced run because the workload exercises that layer.
var exercised = map[string][]string{
	"table1": {"sqlparse.parse_us", "plan.plan_us", "async.rewrite_us", "exec.execute_ms",
		"exec.dependentjoin.self_ms", "exec.aevscan.self_ms", "async.reqsync.self_ms",
		"async.reqsync.patched_per_query", "async.reqsync.expanded_per_query",
		"async.pump.calls_per_query", "async.pump.started_per_query", "async.pump.max_active",
		"async.pump.queue_wait_us", "search.calls_per_query", "search.busy_ms_per_query",
		"search.max_inflight", "sync_query_p50_ms", "sync_query_p90_ms", "table1.improvement.t1",
		"table1.improvement.t2", "table1.improvement.t3", "runtime.cpu_ms_per_query",
		"runtime.alloc_kb_per_query"},
	"local_sql": {"sqlparse.parse_us", "plan.plan_us", "exec.execute_ms", "exec.scan.self_ms",
		"exec.filter.self_ms", "exec.hashjoin.self_ms", "exec.sort.self_ms", "exec.agg.self_ms",
		"exec.distinct.self_ms", "storage.pool_hit_frac", "storage.pool_hit_frac.dim",
		"storage.page_misses_per_query", "storage.pages_appended", "write_p50_ms",
		"runtime.cpu_ms_per_query", "runtime.alloc_kb_per_query"},
	"serve_hot": {"sqlparse.parse_us", "plan.plan_us", "async.rewrite_us", "exec.execute_ms",
		"exec.dependentjoin.self_ms", "exec.aevscan.self_ms", "async.reqsync.self_ms",
		"async.pump.calls_per_query", "async.pump.cache_hit_frac", "cache.hit_frac",
		"server.elapsed_ms", "server.overhead_us", "query_p99_ms", "runtime.cpu_ms_per_query"},
	"tier_cold": {"exec.execute_ms", "async.pump.calls_per_query", "async.pump.started_per_query",
		"cache.hit_frac", "search.calls_per_query", "search.busy_ms_per_query", "search.http_overhead_us",
		"server.elapsed_ms", "server.overhead_us", "shard.hop_us", "shard.peer_hit_frac",
		"shard.remote_hits_per_query", "shard.fills_per_query", "tier.cold_share", "tier.peer_share",
		"tier.local_share", "loadgen.late_ms_p99", "query_p99_ms"},
}

// TestSeedIndependence runs every workload briefly on two seeds, untraced
// and traced: all oracles and mechanism assertions must pass on both,
// and both seeds must report the same metric names.
func TestSeedIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			var names [2][]string
			for i, seed := range []int64{1, 2} {
				cfg := config{seed: seed, seconds: time.Second, trace: traced,
					workDir: t.TempDir(), traceOut: t.TempDir()}
				rep, err := run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, traced, err)
				}
				if rep.failed != 0 || len(rep.problems) != 0 {
					t.Errorf("%s seed %d trace %v: %d failed, problems %v", name, seed, traced, rep.failed, rep.problems)
				}
				if rep.attempted == 0 {
					t.Errorf("%s seed %d trace %v: nothing attempted", name, seed, traced)
				}
				for _, s := range specsFor(traced) {
					if _, ok := rep.metrics[s.name]; !ok && !traced {
						t.Errorf("%s seed %d: end-to-end metric %s not measured", name, seed, s.name)
					}
				}
				if traced {
					for _, m := range exercised[name] {
						if rep.metrics[m] <= 0 {
							t.Errorf("%s seed %d: traced run reports %s = %v; the workload exercises that layer",
								name, seed, m, rep.metrics[m])
						}
					}
				}
				for k := range rep.metrics {
					names[i] = append(names[i], k)
				}
				sort.Strings(names[i])
			}
			if !reflect.DeepEqual(names[0], names[1]) {
				t.Errorf("%s trace %v: seeds report different metrics:\n%v\n%v", name, traced, names[0], names[1])
			}
		}
	}
}
