package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/search"
	"repro/internal/server"
)

// serveMix is the serve_hot request mix: each block of 20 requests has
// this many of each kind, in seeded order, so the mix is identical
// across seeds.
var serveMix = []struct {
	kind  string
	count int
}{{"single", 10}, {"t1", 5}, {"t2", 3}, {"t3", 2}}

// serve_hot pool size: distinct queries of each kind. A larger pool
// averages out how much each seed's constants return.
const (
	serveClients = 2
	serveT1      = 8
	serveT2      = 4
	serveT3      = 4
	serveSingles = 32
)

// hotQuery is one pool entry.
type hotQuery struct {
	kind string
	sql  string
	tq   templateQuery
}

// singleCallQuery joins the one-row table with WebCount: one engine call.
func singleCallQuery(word string) templateQuery {
	return templateQuery{tmpl: 1, v1: word}
}

func singleCallSQL(word string) string {
	return fmt.Sprintf(`SELECT Name, Count FROM One, WebCount WHERE Name = T1 AND T2 = '%s'`, word)
}

// fillerWords returns the corpus's filler vocabulary in a seeded order.
func fillerWords(rng *search.Rand) []string {
	words := make([]string, 800)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return words
}

// servePool draws the seeded pool and the request sequence.
func servePool(seed int64) (pool map[string][]hotQuery, seq []hotQuery, r *replay) {
	rng := search.NewRand(seed)
	consts := append([]string(nil), datasets.TemplateConstants...)
	rng.Shuffle(len(consts), func(i, j int) { consts[i], consts[j] = consts[j], consts[i] })
	words := fillerWords(rng)
	r = newReplay()
	pool = map[string][]hotQuery{}
	add := func(kind string, tq templateQuery, sql string) {
		pool[kind] = append(pool[kind], hotQuery{kind: kind, sql: sql, tq: tq})
	}
	for i := 0; i < serveT1; i++ {
		tq := templateQuery{tmpl: 1, v1: consts[i]}
		add("t1", tq, tq.sql())
	}
	consts = consts[serveT1:]
	for i := 0; i < serveT2; i++ {
		tq := templateQuery{tmpl: 2, v1: consts[i], v2: consts[serveT2+i]}
		add("t2", tq, tq.sql())
	}
	consts = consts[2*serveT2:]
	for i := 0; i < serveT3; i++ {
		tq := templateQuery{tmpl: 3, v1: consts[i]}
		add("t3", tq, tq.sql())
	}
	for i := 0; i < serveSingles; i++ {
		add("single", singleCallQuery(words[i]), singleCallSQL(words[i]))
	}
	for _, qs := range pool {
		for _, q := range qs {
			if q.kind == "single" {
				r.wantCount(engAV, avExpr(oneState, q.tq.v1))
			} else {
				q.tq.want(r)
			}
		}
	}
	// Request sequence: blocks of the fixed mix in seeded order.
	for b := 0; b < 512; b++ {
		var block []hotQuery
		for _, m := range serveMix {
			for i := 0; i < m.count; i++ {
				qs := pool[m.kind]
				block = append(block, qs[rng.Intn(len(qs))])
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block...)
	}
	return pool, seq, r
}

// expectHot is the replay-derived answer of a pool entry.
func expectHot(q hotQuery, r *replay) (rowSet, error) {
	if q.kind != "single" {
		return q.tq.expect(r)
	}
	n, err := r.av.Count(avExpr(oneState, q.tq.v1))
	if err != nil {
		return rowSet{}, err
	}
	return canonRows([][]any{{oneState, n}}), nil
}

// hotEnv is one serve_hot program instance: a database behind one wsqd
// on loopback.
type hotEnv struct {
	db  *core.DB
	hs  *http.Server
	url string
}

func (e *hotEnv) close() {
	e.hs.Close()
	e.db.Close()
}

// runServeHot drives one in-process wsqd over loopback HTTP with two
// closed-loop clients. The result cache is warmed at set-up, so every
// engine call of the timed phase is a cache hit.
func runServeHot(cfg config) (*report, error) {
	ctx := context.Background()
	pool, seq, r := servePool(cfg.seed)
	if err := r.resolve(buildCorpus()); err != nil {
		return nil, err
	}
	meter := &engineMeter{}
	env, setupS, err := repeatSetup(cfg, setupRuns, func(dir string) (*hotEnv, error) {
		db, err := engineDB(ctx, dir, core.Config{Async: true, CacheSize: 1 << 16}, r, cfg.seed, meter)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			db.Close()
			return nil, err
		}
		hs := &http.Server{Handler: server.New(db, server.Options{MaxConcurrentQueries: 2 * serveClients})}
		go hs.Serve(ln)
		env := &hotEnv{db: db, hs: hs, url: "http://" + ln.Addr().String()}
		cl := server.NewClient(env.url)
		for _, qs := range pool {
			for _, q := range qs {
				if _, err := cl.Query(ctx, q.sql, 0); err != nil {
					env.close()
					return nil, fmt.Errorf("cache warm: %w", err)
				}
			}
		}
		return env, nil
	}, (*hotEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	rep := newReport()
	rep.metrics["setup_s"] = setupS
	// Oracle answers: the in-process result of every pool entry, itself
	// checked against the replay-derived expectation.
	expected := map[string]rowSet{}
	for _, qs := range pool {
		for _, q := range qs {
			res, err := env.db.QueryContext(ctx, q.sql)
			if err != nil {
				return nil, err
			}
			got := canonTuples(res.Rows)
			want, err := expectHot(q, r)
			if err != nil {
				return nil, err
			}
			if got != want {
				rep.fail("%s %q: in-process result differs from the replay-derived expectation", q.kind, q.sql)
			}
			expected[q.sql] = got
		}
	}

	var spans *spanLog
	var probe *core.DB
	if cfg.trace {
		spans = newSpanLog()
		rep.spans = spans
		if probe, err = probeDB(ctx, cfg, r); err != nil {
			return nil, err
		}
		defer probe.Close()
	}
	cl := server.NewClient(env.url)
	env.db.Pump().ResetStats()
	h0, m0 := env.db.Cache().Stats()
	ev0 := env.db.Cache().Evictions()
	calls0 := meter.snap().calls

	settle()
	rt0 := readRuntime()
	heap := startHeapPeak()
	start := time.Now()
	res := driveClosed(ctx, cl, serveClients, cfg, func(i int) string { return seq[i%len(seq)].sql },
		expected, spans, probe)
	elapsed := time.Since(start)
	rep.metrics["peak_heap_mb"] = heap.finish()
	rt1 := readRuntime()

	res.into(rep, elapsed, cfg.trace)
	queries := float64(rep.attempted)
	ps := env.db.Pump().Stats()
	h1, m1 := env.db.Cache().Stats()
	rep.metrics["async.pump.calls_per_query"] = ratio(float64(ps.Registered), queries)
	rep.metrics["async.pump.started_per_query"] = ratio(float64(ps.Started), queries)
	rep.metrics["async.pump.cache_hit_frac"] = ratio(float64(ps.CacheHits), float64(ps.Registered))
	rep.metrics["async.pump.coalesced_per_query"] = ratio(float64(ps.Coalesced), queries)
	rep.metrics["async.pump.max_active"] = float64(ps.MaxActive)
	rep.metrics["cache.hit_frac"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	rep.metrics["cache.evictions_per_s"] = float64(env.db.Cache().Evictions()-ev0) / elapsed.Seconds()
	rep.metrics["search.calls_per_query"] = ratio(float64(meter.snap().calls-calls0), queries)
	runtimeMetrics(rep.metrics, rt0, rt1, queries)
	if cfg.trace {
		spans.layerMetrics(rep.metrics)
	}
	if ps.Started != 0 || meter.snap().calls != calls0 {
		rep.fail("%d engine calls started in the timed phase; every call must be a cache hit", ps.Started)
	}
	logf("serve_hot: %d queries in %.1fs (%.0f q/s), p50 %.3fms", rep.attempted, elapsed.Seconds(),
		rep.metrics["qps"], rep.metrics["query_p50_ms"])
	return rep, nil
}

// httpResult accumulates the requests of an HTTP workload.
type httpResult struct {
	mu                    sync.Mutex
	attempted, failed     int64
	problems              []string
	lat, traced, untraced samples
	serverMS, overheadUS  float64
	responses             int64
}

func (c *httpResult) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// into moves the run's counts and latency metrics into rep.
func (c *httpResult) into(rep *report, elapsed time.Duration, traced bool) {
	rep.attempted += c.attempted
	rep.failed += c.failed
	rep.problems = append(rep.problems, c.problems...)
	lat := &c.lat
	if traced {
		lat = &c.untraced
	}
	rep.metrics["query_p50_ms"] = lat.pct(0.5)
	rep.metrics["query_p90_ms"] = lat.pct(0.9)
	rep.metrics["query_p99_ms"] = lat.pct(0.99)
	rep.metrics["qps"] = float64(c.lat.n()) / elapsed.Seconds()
	rep.metrics["failed_frac"] = ratio(float64(c.failed), float64(c.attempted))
	rep.metrics["server.elapsed_ms"] = ratio(c.serverMS, float64(c.responses))
	rep.metrics["server.overhead_us"] = ratio(c.overheadUS, float64(c.responses))
	if traced {
		rep.metrics["trace.overhead_frac"] = ratio(c.traced.pct(0.5), c.untraced.pct(0.5)) - 1
	}
}

// driveClosed runs n clients in a closed loop against a wsqd for the
// configured time. Client requests take successive entries of the
// shared sequence; every response is checked against expected. In a
// traced run every other request asks for the server's span tree and is
// followed by a parse / plan / rewrite probe on probe.
func driveClosed(ctx context.Context, cl *server.Client, n int, cfg config, next func(i int) string,
	expected map[string]rowSet, spans *spanLog, probe *core.DB) *httpResult {
	res := &httpResult{}
	var counter atomic.Int64
	deadline := time.Now().Add(cfg.seconds)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(counter.Add(1) - 1)
				sql := next(i)
				traced := cfg.trace && i%2 == 0
				res.one(ctx, cl, sql, traced, expected[sql], spans, probe, time.Now())
			}
		}()
	}
	wg.Wait()
	return res
}

// one issues one request, timed from start, and checks its answer.
func (c *httpResult) one(ctx context.Context, cl *server.Client, sql string, traced bool, want rowSet,
	spans *spanLog, probe *core.DB, start time.Time) {
	sent := time.Now()
	resp, err := cl.QueryOpts(ctx, server.QueryRequest{SQL: sql, Trace: traced})
	done := time.Now()
	d := done.Sub(start)
	rtt := done.Sub(sent)
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
	if err != nil {
		c.fail("%q: %v", sql, err)
		return
	}
	if canonJSONRows(resp.Rows) != want {
		c.fail("%q: response differs from the in-process answer", sql)
		return
	}
	c.lat.add(d)
	c.mu.Lock()
	c.responses++
	c.serverMS += resp.ElapsedMS
	c.overheadUS += float64(rtt.Microseconds()) - resp.ElapsedMS*1000
	c.mu.Unlock()
	if spans == nil {
		return
	}
	if !traced {
		c.untraced.add(d)
		return
	}
	c.traced.add(d)
	spans.span(resp.TraceID, "server.Client.QueryOpts", "", sent, rtt)
	spans.tree(resp.Trace, rtt)
	if err := spans.probe(probe, sql, resp.TraceID); err != nil {
		c.fail("probe %q: %v", sql, err)
	}
}

// canonJSONRows canonicalizes a wsqd response's rows.
func canonJSONRows(rows [][]interface{}) rowSet {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return canonRows(out)
}
