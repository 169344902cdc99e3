package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/types"
)

// table1Queries instantiates the paper's Table 1 as the harness does:
// templates 1-3, two runs of 8 instances each with disjoint constants
// from the fixed pool, as cells of (template, run).
func table1Queries() [][]templateQuery {
	pool := datasets.TemplateConstants
	const n = 8
	var cells [][]templateQuery
	for tmpl := 1; tmpl <= 3; tmpl++ {
		for run := 0; run < 2; run++ {
			var cell []templateQuery
			for i := 0; i < n; i++ {
				q := templateQuery{tmpl: tmpl}
				if tmpl == 2 {
					// V1 != V2: each run takes 2n constants.
					q.v1, q.v2 = pool[run*2*n+i], pool[run*2*n+n+i]
				} else {
					q.v1 = pool[run*n+i]
				}
				cell = append(cell, q)
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// table1Order returns the 48 queries in a seeded order for one pass.
func table1Order(rng *search.Rand, cells [][]templateQuery) []templateQuery {
	var all []templateQuery
	for _, cell := range cells {
		all = append(all, cell...)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// table1AsyncRepeats is how many times a pass runs the asynchronous
// queries before the synchronous baseline. An asynchronous query is ~25x
// faster, so repeating it is what gives its percentiles enough samples.
const table1AsyncRepeats = 4

// runTable1 replays Table 1 in a closed loop with one client: each pass
// runs the queries with asynchronous iteration, then synchronously, as
// the paper did. Engines are in process, the cache is off. The constants
// are the paper's; the seed sets the query order and the engines'
// latency jitter.
func runTable1(cfg config) (*report, error) {
	ctx := context.Background()
	cells := table1Queries()
	r := newReplay()
	for _, cell := range cells {
		for _, q := range cell {
			q.want(r)
		}
	}
	if err := r.resolve(buildCorpus()); err != nil {
		return nil, err
	}
	expected := map[templateQuery]rowSet{}
	wantCalls := map[templateQuery][2]int64{} // async, sync
	for _, cell := range cells {
		for _, q := range cell {
			rows, err := q.expect(r)
			if err != nil {
				return nil, err
			}
			expected[q] = rows
			wantCalls[q] = [2]int64{int64(q.calls(r, true)), int64(q.calls(r, false))}
		}
	}

	meter := &engineMeter{}
	db, setupS, err := repeatSetup(cfg, quickSetupRuns, func(dir string) (*core.DB, error) {
		return engineDB(ctx, dir, core.Config{Async: true}, r, cfg.seed, meter)
	}, func(db *core.DB) { db.Close() })
	if err != nil {
		return nil, err
	}
	defer db.Close()

	rep := newReport()
	rep.metrics["setup_s"] = setupS
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
		rep.spans = spans
	}
	var asyncLat, syncLat, tracedLat, untracedLat samples
	perTmpl := map[int]*[2]time.Duration{1: {}, 2: {}, 3: {}} // async, sync totals
	perTmplN := map[int]*[2]int{1: {}, 2: {}, 3: {}}
	var engineCalls, syncQueries int64

	settle()
	db.Pump().ResetStats()
	meter.resetPeak()
	st0 := takeStorage(db)
	rt0 := readRuntime()
	heap := startHeapPeak()
	start := time.Now()
	order := search.NewRand(cfg.seed)
	var asyncIdx int
	run := func(q templateQuery, async bool) {
		traced := cfg.trace && async && asyncIdx%2 == 0
		if async {
			asyncIdx++
		}
		ps0, m0 := db.Pump().Stats(), meter.snap()
		d, rows, err := timedQuery(ctx, db, q.sql(), traced, spans)
		ps1, m1 := db.Pump().Stats(), meter.snap()
		rep.attempted++
		mode := "sync"
		if async {
			mode = "async"
		}
		if err != nil {
			rep.failed++
			rep.fail("%s T%d %q: %v", mode, q.tmpl, q.v1, err)
			return
		}
		if canonTuples(rows) != expected[q] {
			rep.failed++
			rep.fail("%s T%d %q: result differs from the replay-derived expectation", mode, q.tmpl, q.v1)
			return
		}
		calls := m1.calls - m0.calls
		engineCalls += calls
		want := wantCalls[q][0]
		if !async {
			want = wantCalls[q][1]
		}
		if calls != want {
			rep.fail("%s T%d %q: %d engine calls, want %d", mode, q.tmpl, q.v1, calls, want)
		}
		if async {
			reg, started := ps1.Registered-ps0.Registered, ps1.Started-ps0.Started
			if reg != calls || started != reg {
				rep.fail("async T%d %q: registered %d, started %d, engine calls %d: want all equal",
					q.tmpl, q.v1, reg, started, calls)
			}
			asyncLat.add(d)
			if cfg.trace {
				if traced {
					tracedLat.add(d)
				} else {
					untracedLat.add(d)
				}
			}
		} else {
			syncLat.add(d)
			syncQueries++
		}
		if !traced {
			i := 0
			if !async {
				i = 1
			}
			perTmpl[q.tmpl][i] += d
			perTmplN[q.tmpl][i]++
		}
	}
	// Whole passes keep every template equally represented. A pass runs
	// all 48 queries asynchronously table1AsyncRepeats times, then once
	// synchronously, in a seeded order; passes continue while the next
	// one would end less than half a pass past the deadline.
	for {
		passStart := time.Now()
		all := table1Order(order, cells)
		db.SetAsync(true)
		for k := 0; k < table1AsyncRepeats; k++ {
			for _, q := range all {
				run(q, true)
			}
		}
		db.SetAsync(false)
		for _, q := range all {
			run(q, false)
		}
		pass := time.Since(passStart)
		if time.Since(start)+pass/2 >= cfg.seconds {
			break
		}
	}
	elapsed := time.Since(start)
	rep.metrics["peak_heap_mb"] = heap.finish()
	rt1 := readRuntime()

	queries := float64(rep.attempted)
	lat := &asyncLat
	if cfg.trace {
		lat = &untracedLat
	}
	rep.metrics["query_p50_ms"] = lat.pct(0.5)
	rep.metrics["query_p90_ms"] = lat.pct(0.9)
	rep.metrics["query_p99_ms"] = lat.pct(0.99)
	rep.metrics["sync_query_p50_ms"] = syncLat.pct(0.5)
	rep.metrics["sync_query_p90_ms"] = syncLat.pct(0.9)
	rep.metrics["qps"] = queries / elapsed.Seconds()
	rep.metrics["failed_frac"] = ratio(float64(rep.failed), queries)
	for t := 1; t <= 3; t++ {
		a, s := perTmpl[t][0], perTmpl[t][1]
		na, ns := perTmplN[t][0], perTmplN[t][1]
		if na > 0 && ns > 0 && a > 0 {
			rep.metrics[fmt.Sprintf("table1.improvement.t%d", t)] = (float64(s) / float64(ns)) / (float64(a) / float64(na))
		}
	}
	ps := db.Pump().Stats()
	asyncN := float64(asyncLat.n())
	rep.metrics["async.pump.calls_per_query"] = ratio(float64(ps.Registered), asyncN)
	rep.metrics["async.pump.started_per_query"] = ratio(float64(ps.Started), asyncN)
	rep.metrics["async.pump.cache_hit_frac"] = ratio(float64(ps.CacheHits), float64(ps.Registered))
	rep.metrics["async.pump.coalesced_per_query"] = ratio(float64(ps.Coalesced), asyncN)
	rep.metrics["async.pump.max_active"] = float64(ps.MaxActive)
	ms := meter.snap()
	rep.metrics["search.calls_per_query"] = ratio(float64(engineCalls), queries)
	rep.metrics["search.busy_ms_per_query"] = ratio(float64(ms.busyNS)/1e6, queries)
	rep.metrics["search.max_inflight"] = float64(meter.peakInflight())
	runtimeMetrics(rep.metrics, rt0, rt1, queries)
	storageMetrics(rep.metrics, st0, takeStorage(db), queries)
	if cfg.trace {
		spans.layerMetrics(rep.metrics)
		rep.metrics["trace.overhead_frac"] = ratio(tracedLat.pct(0.5), untracedLat.pct(0.5)) - 1
	}
	logf("table1: %d queries (%d sync) in %.1fs, async p50 %.2fms, sync p50 %.1fms",
		rep.attempted, syncQueries, elapsed.Seconds(), rep.metrics["query_p50_ms"], rep.metrics["sync_query_p50_ms"])
	return rep, nil
}

// timedQuery runs one in-process query through core.DB.QueryContextOpts.
// A traced query sets QueryOptions.Trace under a sampled trace context,
// folds the program's span tree into spans and probes the front half of
// the pipeline afterwards.
func timedQuery(ctx context.Context, db *core.DB, sql string, traced bool, spans *spanLog) (time.Duration, []types.Tuple, error) {
	if !traced {
		start := time.Now()
		res, err := db.QueryContextOpts(ctx, sql, core.QueryOptions{})
		d := time.Since(start)
		if err != nil {
			return d, nil, err
		}
		return d, res.Rows, nil
	}
	tc := obs.NewTraceCtx()
	start := time.Now()
	res, err := db.QueryContextOpts(obs.WithTrace(ctx, tc), sql, core.QueryOptions{Trace: true})
	d := time.Since(start)
	spans.span(tc.TraceID, "core.DB.QueryContextOpts", "", start, d)
	if err != nil {
		return d, nil, err
	}
	if res.Trace != nil {
		spans.tree(res.Trace.JSON(), d)
	}
	if err := spans.probe(db, sql, tc.TraceID); err != nil {
		return d, nil, err
	}
	return d, res.Rows, nil
}
