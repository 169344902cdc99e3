// Command perfbench is the repository benchmark: four seeded workloads
// that drive the WSQ/DSQ program through its public entry points over a
// replayed web, check every answer, and report end-to-end metrics (an
// untraced run) or per-layer metrics (a traced run).
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload table1 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The metrics a run prints, with their units: the end-to-end set in an
// untraced run, the per-layer set in a traced one. Every workload prints
// every metric of the set; a per-layer metric of a layer the workload
// does not exercise reads 0. BENCHMARK.json lists the same names.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"qps", "1/s"},
	{"peak_heap_mb", "MiB"},
}

var perLayer = []metricSpec{
	{"query_p99_ms", "ms"},
	{"sync_query_p50_ms", "ms"},
	{"sync_query_p90_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"failed_frac", "ratio"},
	{"table1.improvement.t1", "x"},
	{"table1.improvement.t2", "x"},
	{"table1.improvement.t3", "x"},
	{"sqlparse.parse_us", "us"},
	{"plan.plan_us", "us"},
	{"async.rewrite_us", "us"},
	{"exec.execute_ms", "ms"},
	{"exec.scan.self_ms", "ms"},
	{"exec.filter.self_ms", "ms"},
	{"exec.hashjoin.self_ms", "ms"},
	{"exec.sort.self_ms", "ms"},
	{"exec.agg.self_ms", "ms"},
	{"exec.distinct.self_ms", "ms"},
	{"exec.dependentjoin.self_ms", "ms"},
	{"exec.aevscan.self_ms", "ms"},
	{"async.reqsync.self_ms", "ms"},
	{"async.reqsync.patched_per_query", "count"},
	{"async.reqsync.expanded_per_query", "count"},
	{"async.reqsync.canceled_per_query", "count"},
	{"async.pump.calls_per_query", "count"},
	{"async.pump.started_per_query", "count"},
	{"async.pump.cache_hit_frac", "ratio"},
	{"async.pump.coalesced_per_query", "count"},
	{"async.pump.max_active", "count"},
	{"async.pump.queue_wait_us", "us"},
	{"async.pump.dispatch_overhead_us", "us"},
	{"storage.pool_hit_frac", "ratio"},
	{"storage.pool_hit_frac.fact", "ratio"},
	{"storage.pool_hit_frac.dim", "ratio"},
	{"storage.page_misses_per_query", "count"},
	{"storage.pages_appended", "count"},
	{"cache.hit_frac", "ratio"},
	{"cache.evictions_per_s", "1/s"},
	{"search.calls_per_query", "count"},
	{"search.busy_ms_per_query", "ms"},
	{"search.max_inflight", "count"},
	{"search.http_overhead_us", "us"},
	{"server.elapsed_ms", "ms"},
	{"server.overhead_us", "us"},
	{"shard.hop_us", "us"},
	{"shard.peer_hit_frac", "ratio"},
	{"shard.remote_hits_per_query", "count"},
	{"shard.promise_waits_per_query", "count"},
	{"shard.fills_per_query", "count"},
	{"tier.cold_share", "ratio"},
	{"tier.peer_share", "ratio"},
	{"tier.local_share", "ratio"},
	{"runtime.cpu_ms_per_query", "ms"},
	{"runtime.alloc_kb_per_query", "KiB"},
	{"runtime.gc_cycles_per_kquery", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

type metricSpec struct{ name, unit string }

// specsFor returns the metrics a run prints.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// config is one invocation's parameters.
type config struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string // scratch space for database files
	traceOut string // where a traced run writes its spans
}

// report is what a workload hands back: the counts, the oracles'
// verdict, and every metric it measured.
type report struct {
	attempted int64
	failed    int64
	problems  []string // oracle and mechanism failures
	metrics   map[string]float64
	spans     *spanLog // traced runs only
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records an oracle or mechanism violation. Problems make the run
// incorrect; failed counts the individual operations they cost.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"table1":    runTable1,
	"local_sql": runLocalSQL,
	"serve_hot": runServeHot,
	"tier_cold": runTierCold,
}

func main() {
	name := flag.String("workload", "", "workload: table1, local_sql, serve_hot, tier_cold")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work-dir", filepath.Join(".bench_build", "work"), "scratch directory for database files")
	traceOut := flag.String("trace-out", filepath.Join(".bench_build", "traces"), "directory for traced-run span files")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fatal(err)
	}
	cfg := config{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workDir:  dir,
		traceOut: *traceOut,
	}
	rep, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if cfg.trace && rep.spans != nil {
		path, err := rep.spans.write(cfg.traceOut, *name, cfg.seed, rep.metrics)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	emit(rep, cfg.trace)
}

// emit prints the problems to standard error and the result object as
// the last line of standard output.
func emit(rep *report, traced bool) {
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	specs := specsFor(traced)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	var names []string
	for _, s := range specs {
		v := rep.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		names = append(names, s.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
