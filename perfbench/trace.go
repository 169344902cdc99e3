package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// The traced run records two kinds of spans. The program's own spans
// (per-operator trees with pump call timelines, requested through
// QueryOptions.Trace or the server's trace flag) are folded into
// per-layer totals as they arrive. The benchmark's spans wrap each public
// call it makes — the query itself and the parse / plan / rewrite probes
// — and are kept in memory and written out when the run ends.

// benchSpan is one benchmark-side span.
type benchSpan struct {
	TraceID string  `json:"trace_id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"` // offset from the start of the timed phase
	DurUS   float64 `json:"dur_us"`
}

// maxKeptSpans bounds the in-memory span log; later spans are counted
// but not kept.
const maxKeptSpans = 50000

// maxKeptTrees is how many program span trees are written out whole.
const maxKeptTrees = 16

// spanLog collects benchmark spans and aggregates program span trees
// into per-layer totals. It is safe for concurrent use.
type spanLog struct {
	epoch time.Time

	// probeMu serializes probes: they toggle the probed database's
	// async mode.
	probeMu sync.Mutex

	mu      sync.Mutex
	spans   []benchSpan
	dropped int
	trees   []*obs.SpanJSON

	// Per-layer accumulators over traced queries.
	queries    int
	selfUS     map[string]float64 // metric name -> total self time
	execUS     float64
	extras     map[string]int64 // ReqSync counters
	pumpCalls  int
	queueUS    float64
	overheadUS float64
	hopUS      float64
	hops       int
	wallUS     float64
	coveredUS  float64
	probeNS    map[string]time.Duration
	probes     map[string]int
}

func newSpanLog() *spanLog {
	return &spanLog{
		epoch:   time.Now(),
		selfUS:  map[string]float64{},
		extras:  map[string]int64{},
		probeNS: map[string]time.Duration{},
		probes:  map[string]int{},
	}
}

// span records one benchmark-side span.
func (l *spanLog) span(traceID, name, parent string, start time.Time, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxKeptSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, benchSpan{
		TraceID: traceID, Name: name, Parent: parent,
		StartUS: float64(start.Sub(l.epoch).Microseconds()), DurUS: float64(d.Microseconds()),
	})
}

// operatorMetric maps a program span name to its per-layer self-time
// metric.
var operatorMetric = map[string]string{
	"Scan":           "exec.scan.self_ms",
	"Select":         "exec.filter.self_ms",
	"Hash Join":      "exec.hashjoin.self_ms",
	"Hash Semi Join": "exec.hashjoin.self_ms",
	"Sort":           "exec.sort.self_ms",
	"Aggregate":      "exec.agg.self_ms",
	"Distinct":       "exec.distinct.self_ms",
	"Dependent Join": "exec.dependentjoin.self_ms",
	"AEVScan":        "exec.aevscan.self_ms",
	"ReqSync":        "async.reqsync.self_ms",
}

// tree folds one traced query's program span tree into the totals. wall
// is the query's client-side wall time; the outermost program span is
// what the program accounted for.
func (l *spanLog) tree(root *obs.SpanJSON, wall time.Duration) {
	if root == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queries++
	l.wallUS += float64(wall.Microseconds())
	l.coveredUS += root.DurUS
	if len(l.trees) < maxKeptTrees {
		l.trees = append(l.trees, root)
	}
	var attempt *obs.SpanJSON
	var ops *obs.SpanJSON // root of the operator tree
	var walk func(s *obs.SpanJSON, async bool)
	walk = func(s *obs.SpanJSON, async bool) {
		switch {
		case s.Op == "coord.attempt":
			attempt = s
		case s.Op == "wsqd.query":
			if attempt != nil {
				l.hopUS += attempt.DurUS - s.DurUS
				l.hops++
			}
		case s.Op == "pump.call":
			l.pumpCalls++
			var attempts float64
			for _, c := range s.Children {
				attempts += c.DurUS
			}
			q := float64(s.Extra["queue_us"])
			l.queueUS += q
			l.overheadUS += s.DurUS - attempts - q
			return
		case !async:
			if m, ok := operatorMetric[s.Op]; ok {
				l.selfUS[m] += s.SelfUS
			}
			if ops == nil && !isWrapperSpan(s.Op) {
				ops = s
			}
			if s.Op == "ReqSync" {
				for k, v := range s.Extra {
					l.extras[k] += v
				}
			}
		}
		for _, c := range s.Children {
			walk(c, async || c.Async)
		}
	}
	walk(root, false)
	if ops != nil {
		l.execUS += ops.DurUS
	}
}

// isWrapperSpan reports spans the serving tier adds around the operator
// tree.
func isWrapperSpan(op string) bool {
	return op == "coord.query" || op == "coord.attempt" || op == "wsqd.query"
}

// probe times the front half of the query pipeline — parse, plan with
// asynchronous iteration off, and the asynchronous-iteration rewrite —
// by calling each public entry point once. The probe toggles db's async
// mode, so db must not be running queries of its own concurrently.
func (l *spanLog) probe(db *core.DB, sql, traceID string) error {
	l.probeMu.Lock()
	defer l.probeMu.Unlock()
	t0 := time.Now()
	st, err := sqlparse.Parse(sql)
	parse := time.Since(t0)
	if err != nil {
		return fmt.Errorf("probe parse: %w", err)
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return fmt.Errorf("probe: %T is not a SELECT", st)
	}
	wasAsync := db.Async()
	db.SetAsync(false)
	t1 := time.Now()
	op, err := db.Plan(sel)
	plan := time.Since(t1)
	db.SetAsync(wasAsync)
	if err != nil {
		return fmt.Errorf("probe plan: %w", err)
	}
	t2 := time.Now()
	async.Rewrite(op, db.Pump())
	rewrite := time.Since(t2)

	l.span(traceID, "sqlparse.Parse", "bench.probe", t0, parse)
	l.span(traceID, "core.DB.Plan", "bench.probe", t1, plan)
	l.span(traceID, "async.Rewrite", "bench.probe", t2, rewrite)
	l.mu.Lock()
	l.probeNS["sqlparse.parse_us"] += parse
	l.probeNS["plan.plan_us"] += plan
	l.probeNS["async.rewrite_us"] += rewrite
	l.probes["sqlparse.parse_us"]++
	l.probes["plan.plan_us"]++
	l.probes["async.rewrite_us"]++
	l.mu.Unlock()
	return nil
}

// layerMetrics writes the per-layer averages into m.
func (l *spanLog) layerMetrics(m map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	q := float64(l.queries)
	for name, us := range l.selfUS {
		m[name] = ratio(us, q) / 1000
	}
	m["exec.execute_ms"] = ratio(l.execUS, q) / 1000
	m["async.reqsync.patched_per_query"] = ratio(float64(l.extras["patched"]), q)
	m["async.reqsync.expanded_per_query"] = ratio(float64(l.extras["expanded"]), q)
	m["async.reqsync.canceled_per_query"] = ratio(float64(l.extras["canceled"]), q)
	m["async.pump.queue_wait_us"] = ratio(l.queueUS, float64(l.pumpCalls))
	m["async.pump.dispatch_overhead_us"] = ratio(l.overheadUS, float64(l.pumpCalls))
	if l.hops > 0 {
		m["shard.hop_us"] = l.hopUS / float64(l.hops)
	}
	if l.wallUS > 0 {
		m["trace.unaccounted_frac"] = 1 - l.coveredUS/l.wallUS
	}
	for name, d := range l.probeNS {
		m[name] = ratio(float64(d.Microseconds()), float64(l.probes[name]))
	}
}

// write saves the spans, a sample of program trees and the per-layer
// metrics as one JSON document.
func (l *spanLog) write(dir, workload string, seed int64, metrics map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	l.mu.Lock()
	doc := map[string]any{
		"workload":      workload,
		"seed":          seed,
		"per_layer":     metrics,
		"traced":        l.queries,
		"spans":         l.spans,
		"spans_dropped": l.dropped,
		"program_trees": l.trees,
	}
	b, err := json.Marshal(doc)
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
