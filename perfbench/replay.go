package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/websim"
)

// The benchmark replays the simulated web instead of running it: every
// engine answer a seeded workload needs is computed from websim before
// the program starts, and the program's engine calls are served from
// those tables. Live websim would otherwise spend most of the CPU of a
// cached or local query, competing with the program for the same cores.

// Engine names as the program registers them. AltaVista evaluates the
// default search expression with NEAR; Google joins the terms with a
// space (paper footnote 1).
const (
	engAV     = "altavista"
	engGoogle = "google"
)

// searchKey identifies one Search call.
type searchKey struct {
	query string
	k     int
}

// replayEngine is a search.Engine answering from precomputed tables. An
// unknown key is an error: a workload that asks for something its
// generator did not predict fails instead of silently hitting websim.
type replayEngine struct {
	name     string
	counts   map[string]int64
	searches map[searchKey][]search.Result
}

func newReplayEngine(name string) *replayEngine {
	return &replayEngine{name: name, counts: map[string]int64{}, searches: map[searchKey][]search.Result{}}
}

func (r *replayEngine) Name() string { return r.name }

func (r *replayEngine) Count(query string) (int64, error) {
	n, ok := r.counts[query]
	if !ok {
		return 0, fmt.Errorf("replay %s: no count recorded for %q", r.name, query)
	}
	return n, nil
}

func (r *replayEngine) Search(query string, k int) ([]search.Result, error) {
	res, ok := r.searches[searchKey{query, k}]
	if !ok {
		return nil, fmt.Errorf("replay %s: no search recorded for %q k=%d", r.name, query, k)
	}
	out := make([]search.Result, len(res))
	copy(out, res)
	return out, nil
}

func (r *replayEngine) Fetch(url string) (string, error) {
	return "", fmt.Errorf("replay %s: fetch is not part of any workload", r.name)
}

// replay is the pair of engines every workload's program is wired to.
type replay struct {
	av, google *replayEngine
}

func newReplay() *replay {
	return &replay{av: newReplayEngine(engAV), google: newReplayEngine(engGoogle)}
}

func (r *replay) engine(name string) *replayEngine {
	if name == engGoogle {
		return r.google
	}
	return r.av
}

// want registers keys; resolve fills them from websim.
func (r *replay) wantCount(engine, query string) { r.engine(engine).counts[query] = -1 }

func (r *replay) wantSearch(engine, query string, k int) {
	r.engine(engine).searches[searchKey{query, k}] = nil
}

// resolve answers every registered key from a websim corpus.
func (r *replay) resolve(c *websim.Corpus) error {
	for _, e := range []*replayEngine{r.av, r.google} {
		sim := simEngine(c, e.name)
		for q := range e.counts {
			n, err := sim.Count(q)
			if err != nil {
				return fmt.Errorf("websim %s count %q: %w", e.name, q, err)
			}
			e.counts[q] = n
		}
		for key := range e.searches {
			res, err := sim.Search(key.query, key.k)
			if err != nil {
				return fmt.Errorf("websim %s search %q: %w", e.name, key.query, err)
			}
			if res == nil {
				res = []search.Result{}
			}
			e.searches[key] = res
		}
	}
	return nil
}

func simEngine(c *websim.Corpus, name string) search.Engine {
	if name == engGoogle {
		return websim.NewGoogle(c)
	}
	return websim.NewAltaVista(c)
}

// buildCorpus generates the standard synthetic web. The benchmark builds
// its own copy rather than websim.Default's process-wide one, so the
// corpus is garbage once the replay tables are resolved.
func buildCorpus() *websim.Corpus { return websim.Build(websim.DefaultConfig()) }

// ---------------------------------------------------------------------------
// Search expressions, as the program's virtual tables build them

// avExpr is the default WebCount/WebPages expression on a NEAR engine.
func avExpr(t1, t2 string) string { return t1 + " near " + t2 }

// googleExpr is the default expression on an engine without NEAR.
func googleExpr(t1, t2 string) string { return t1 + " " + t2 }

// ---------------------------------------------------------------------------
// Engine stack: replay + injected latency + benchmark-side accounting

// benchLatency is the injected per-call latency of every workload that
// calls engines.
func benchLatency() search.LatencyModel {
	return search.LatencyModel{Base: time.Millisecond, Jitter: 500 * time.Microsecond, CountFactor: 0.8}
}

// delayedEngines wraps both replay engines in seeded injected latency.
func (r *replay) delayed(seed int64) (av, google search.Engine) {
	return search.NewDelayedRand(r.av, benchLatency(), search.NewRand(1000+seed)),
		search.NewDelayedRand(r.google, benchLatency(), search.NewRand(2000+seed))
}

// meteredEngine counts the calls that pass through it and how long they
// took: the benchmark's own view of the search layer. It forwards
// obs.Observable so the program's engine metrics are attached as usual.
type meteredEngine struct {
	inner search.Engine
	m     *engineMeter
}

// engineMeter accumulates calls, busy time and peak concurrency for one
// or more engines.
type engineMeter struct {
	calls    atomic.Int64
	busyNS   atomic.Int64
	mu       sync.Mutex
	inflight int
	peak     int
}

func (m *engineMeter) enter() time.Time {
	m.mu.Lock()
	m.inflight++
	if m.inflight > m.peak {
		m.peak = m.inflight
	}
	m.mu.Unlock()
	return time.Now()
}

func (m *engineMeter) exit(start time.Time) {
	m.busyNS.Add(int64(time.Since(start)))
	m.calls.Add(1)
	m.mu.Lock()
	m.inflight--
	m.mu.Unlock()
}

// meterSnap is a point-in-time copy of an engineMeter.
type meterSnap struct {
	calls  int64
	busyNS int64
}

func (m *engineMeter) snap() meterSnap {
	return meterSnap{calls: m.calls.Load(), busyNS: m.busyNS.Load()}
}

// resetPeak restarts the concurrency high-water mark from the live value.
func (m *engineMeter) resetPeak() {
	m.mu.Lock()
	m.peak = m.inflight
	m.mu.Unlock()
}

func (m *engineMeter) peakInflight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

func metered(e search.Engine, m *engineMeter) *meteredEngine {
	return &meteredEngine{inner: e, m: m}
}

func (e *meteredEngine) Name() string { return e.inner.Name() }

func (e *meteredEngine) Count(q string) (int64, error) {
	defer e.m.exit(e.m.enter())
	return e.inner.Count(q)
}

func (e *meteredEngine) Search(q string, k int) ([]search.Result, error) {
	defer e.m.exit(e.m.enter())
	return e.inner.Search(q, k)
}

func (e *meteredEngine) Fetch(u string) (string, error) {
	defer e.m.exit(e.m.enter())
	return e.inner.Fetch(u)
}

// Observe implements obs.Observable by forwarding to the wrapped engine.
func (e *meteredEngine) Observe(reg *obs.Registry) {
	if o, ok := e.inner.(obs.Observable); ok {
		o.Observe(reg)
	}
}

// ---------------------------------------------------------------------------
// Template keys and expected answers

// paperStates and paperSigs are the stored tables the templates join.
func paperStates() []string {
	out := make([]string, len(datasets.States))
	for i, s := range datasets.States {
		out[i] = s.Name
	}
	return out
}

// templateQuery is one instantiated Table-1 template.
type templateQuery struct {
	tmpl   int
	v1, v2 string
}

// sql renders the query exactly as the paper's templates read.
func (q templateQuery) sql() string {
	switch q.tmpl {
	case 1:
		return fmt.Sprintf(`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = '%s'`, q.v1)
	case 2:
		return fmt.Sprintf(`SELECT Name, Count, URL, Rank FROM States, WebCount, WebPages `+
			`WHERE Name = WebCount.T1 AND WebCount.T2 = '%s' `+
			`AND Name = WebPages.T1 AND WebPages.T2 = '%s' AND WebPages.Rank <= 2`, q.v1, q.v2)
	default:
		return fmt.Sprintf(`SELECT Name, AV.URL, G.URL FROM Sigs, WebPages_AV AV, WebPages_Google G `+
			`WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 3 AND G.Rank <= 3 `+
			`AND AV.T2 = '%s' AND G.T2 = '%s'`, q.v1, q.v1)
	}
}

// want registers every engine answer the query will request.
func (q templateQuery) want(r *replay) {
	switch q.tmpl {
	case 1:
		for _, s := range paperStates() {
			r.wantCount(engAV, avExpr(s, q.v1))
		}
	case 2:
		for _, s := range paperStates() {
			r.wantCount(engAV, avExpr(s, q.v1))
			r.wantSearch(engAV, avExpr(s, q.v2), 2)
		}
	default:
		for _, g := range datasets.Sigs {
			r.wantSearch(engAV, avExpr(g, q.v1), 3)
			r.wantSearch(engGoogle, googleExpr(g, q.v1), 3)
		}
	}
}

// calls is the number of engine calls one execution issues without a
// cache. Templates 1 and 2 make one call per state and virtual table in
// either mode. In template 3 the asynchronous plan probes each engine
// once per SIG, while the synchronous nested-loop plan re-probes Google
// once per AltaVista result row of the SIG (and not at all for a SIG
// with no AltaVista results).
func (q templateQuery) calls(r *replay, async bool) int {
	switch q.tmpl {
	case 1:
		return len(datasets.States)
	case 2:
		return 2 * len(datasets.States)
	default:
		if async {
			return 2 * len(datasets.Sigs)
		}
		n := 0
		for _, g := range datasets.Sigs {
			av, _ := r.av.Search(avExpr(g, q.v1), 3)
			n += 1 + len(av)
		}
		return n
	}
}

// expect evaluates the query directly over the replay tables, in the
// canonical row form the oracles compare.
func (q templateQuery) expect(r *replay) (rowSet, error) {
	var rows [][]any
	switch q.tmpl {
	case 1:
		for _, s := range paperStates() {
			n, err := r.av.Count(avExpr(s, q.v1))
			if err != nil {
				return rowSet{}, err
			}
			rows = append(rows, []any{s, n})
		}
	case 2:
		for _, s := range paperStates() {
			n, err := r.av.Count(avExpr(s, q.v1))
			if err != nil {
				return rowSet{}, err
			}
			pages, err := r.av.Search(avExpr(s, q.v2), 2)
			if err != nil {
				return rowSet{}, err
			}
			for _, p := range pages {
				if p.Rank <= 2 {
					rows = append(rows, []any{s, n, p.URL, int64(p.Rank)})
				}
			}
		}
	default:
		for _, g := range datasets.Sigs {
			av, err := r.av.Search(avExpr(g, q.v1), 3)
			if err != nil {
				return rowSet{}, err
			}
			gg, err := r.google.Search(googleExpr(g, q.v1), 3)
			if err != nil {
				return rowSet{}, err
			}
			for _, a := range av {
				for _, b := range gg {
					if a.Rank <= 3 && b.Rank <= 3 {
						rows = append(rows, []any{g, a.URL, b.URL})
					}
				}
			}
		}
	}
	return canonRows(rows), nil
}
