package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/shard"
)

// tier_cold load: an open loop at a fixed rate with at most tierInflight
// requests outstanding. The first tierGap requests are cold; after them
// every block of 10 requests holds tierBlock's classes in seeded order.
// Peer and local requests only reuse words whose cold request was issued
// at least tierGap slots earlier, so the fills it triggered have landed.
const (
	tierRate     = 50 // requests per second
	tierInflight = 2
	tierGap      = 30
	tierLimitMS  = 120 // stated p99 latency limit at tierRate
	tierBudget   = 64  // tier-wide per-engine call budget
)

var tierBlock = []string{"cold", "cold", "cold", "peer", "peer", "peer", "local", "local", "local", "local"}

// tierReq is one scheduled request.
type tierReq struct {
	class string // "cold", "peer", "local"
	word  string
	sql   string
}

// tierSchedule draws the seeded request stream for n slots: fresh words
// for cold requests (corpus filler words, then pairs of them), the
// decoy-literal variant routed to the other worker for peer requests,
// and a repeat of an earlier query for local hits.
func tierSchedule(seed int64, n int, ring *shard.Ring) ([]tierReq, error) {
	rng := search.NewRand(seed)
	words := fillerWords(rng)
	fresh := func(i int) string {
		if i < len(words) {
			return words[i]
		}
		return words[i%len(words)] + " " + words[(i/len(words)+i)%len(words)]
	}
	type born struct {
		word string
		slot int
	}
	var cold []born
	peerNext := 0 // cold words are used for a peer request in order
	var out []tierReq
	var block []string
	ready := 0 // cold[:ready] are old enough to reuse
	for i := 0; i < n; i++ {
		class := "cold"
		if i >= tierGap {
			if len(block) == 0 {
				block = append(block, tierBlock...)
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			class, block = block[0], block[1:]
		}
		for ready < len(cold) && cold[ready].slot <= i-tierGap {
			ready++
		}
		if class == "peer" && peerNext >= ready || class == "local" && ready == 0 {
			class = "cold"
		}
		switch class {
		case "cold":
			w := fresh(len(cold))
			cold = append(cold, born{w, i})
			out = append(out, tierReq{class: "cold", word: w, sql: templateQuery{tmpl: 1, v1: w}.sql()})
		case "peer":
			w := cold[peerNext].word
			peerNext++
			alt, err := decoyVariant(templateQuery{tmpl: 1, v1: w}.sql(), ring)
			if err != nil {
				return nil, err
			}
			out = append(out, tierReq{class: "peer", word: w, sql: alt})
		default:
			w := cold[rng.Intn(ready)].word
			out = append(out, tierReq{class: "local", word: w, sql: templateQuery{tmpl: 1, v1: w}.sql()})
		}
	}
	return out, nil
}

// decoyVariant adds a literal that changes nothing in the answer but
// moves the query's route key to a worker other than its home, so the
// same web expressions run on the node that does not hold them.
func decoyVariant(sql string, ring *shard.Ring) (string, error) {
	home, ok := ring.Owner(shard.RouteKey(sql))
	if !ok {
		return "", fmt.Errorf("empty ring")
	}
	for i := 0; i < 1000; i++ {
		alt := strings.Replace(sql, " WHERE ", fmt.Sprintf(" WHERE Name <> 'no-such-state-%d' AND ", i), 1)
		if m, _ := ring.Owner(shard.RouteKey(alt)); m.ID != home.ID {
			return alt, nil
		}
	}
	return "", fmt.Errorf("no decoy literal moves %q off %s", sql, home.ID)
}

// tierNode is one worker: database, peer client, shard wrapper, listener.
type tierNode struct {
	db    *core.DB
	peers *shard.Peers
	w     *shard.Worker
	hs    *http.Server
}

// tierEnv is one tier instance: two workers and a coordinator.
type tierEnv struct {
	nodes  []*tierNode
	coord  *shard.Coordinator
	chs    *http.Server
	url    string
	cancel context.CancelFunc
}

func (e *tierEnv) close() {
	if e.chs != nil {
		e.chs.Close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, n := range e.nodes {
		n.hs.Close()
		n.peers.Close()
		n.db.Close()
	}
	e.cancel()
}

// engineServers serves the replay engines, with injected latency, over
// loopback HTTP: the replayed web.
type engineServers struct {
	av, google string
	servers    []*http.Server
}

func startEngineServers(r *replay, seed int64, m *engineMeter) (*engineServers, error) {
	av, g := r.delayed(seed)
	es := &engineServers{}
	for i, e := range []search.Engine{av, g} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			es.close()
			return nil, err
		}
		hs := &http.Server{Handler: search.NewHandler(metered(e, m))}
		go hs.Serve(ln)
		es.servers = append(es.servers, hs)
		url := "http://" + ln.Addr().String()
		if i == 0 {
			es.av = url
		} else {
			es.google = url
		}
	}
	return es, nil
}

func (es *engineServers) close() {
	for _, s := range es.servers {
		s.Close()
	}
}

// startTier brings up two workers, with their databases under dir, and
// a coordinator. Workers reach the engines through the program's HTTP
// engine client, metered on the client side by clientMeter.
func startTier(ctx context.Context, dir string, es *engineServers, clientMeter *engineMeter) (*tierEnv, error) {
	lctx, cancel := context.WithCancel(ctx)
	env := &tierEnv{cancel: cancel}
	var lns []net.Listener
	var members []shard.Member
	for j := 0; j < 2; j++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			cancel()
			return nil, err
		}
		lns = append(lns, ln)
		members = append(members, shard.Member{ID: fmt.Sprintf("w%d", j+1), URL: "http://" + ln.Addr().String()})
	}
	tcfg := shard.Config{Workers: members, VNodes: shard.DefaultVNodes,
		Budgets: map[string]int{engAV: tierBudget, engGoogle: tierBudget}}
	for j, m := range members {
		db, err := core.Open(core.Config{Dir: filepath.Join(dir, m.ID), Async: true, CacheSize: 1 << 20})
		if err != nil {
			lns[j].Close()
			env.close()
			return nil, err
		}
		db.RegisterEngine(metered(search.Bind(lctx, search.NewClient(engAV, es.av)), clientMeter), "AV")
		db.RegisterEngine(metered(search.Bind(lctx, search.NewClient(engGoogle, es.google)), clientMeter), "G")
		if err := loadPaperTables(ctx, db); err != nil {
			lns[j].Close()
			db.Close()
			env.close()
			return nil, err
		}
		peers := shard.NewPeers(m.ID, tcfg, shard.PeerOptions{})
		db.Pump().SetCachePeer(peers)
		inner := server.New(db, server.Options{MaxConcurrentQueries: 2 * tierInflight, Node: m.ID})
		w := shard.NewWorker(shard.WorkerOptions{ID: m.ID, Inner: inner, Cache: db.Cache(), Pump: db.Pump(), Peers: peers})
		hs := &http.Server{Handler: w}
		go hs.Serve(lns[j])
		env.nodes = append(env.nodes, &tierNode{db: db, peers: peers, w: w, hs: hs})
	}
	env.coord = shard.NewCoordinator(tcfg, shard.CoordinatorOptions{})
	if err := env.coord.Sync(ctx); err != nil {
		env.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	env.chs = &http.Server{Handler: env.coord.Handler()}
	go env.chs.Serve(ln)
	env.url = "http://" + ln.Addr().String()
	return env, nil
}

// tierCounters sums the workers' pump, cache and shard counters.
type tierCounters struct {
	registered, started, cacheHits, peerHits, coalesced int64
	remoteHits, promiseWaits, fills                     int64
	cacheEvictions                                      int64
	maxActive                                           int // highest of the workers' peaks
}

func (e *tierEnv) counters() tierCounters {
	var c tierCounters
	for _, n := range e.nodes {
		ps := n.db.Pump().Stats()
		c.registered += ps.Registered
		c.started += ps.Started
		c.cacheHits += ps.CacheHits
		c.peerHits += ps.PeerHits
		c.coalesced += ps.Coalesced
		c.maxActive = max(c.maxActive, ps.MaxActive)
		ws := n.w.Stats()
		c.remoteHits += ws.RemoteHits
		c.promiseWaits += ws.PromiseWaits
		c.fills += ws.FillsRecv
		c.cacheEvictions += n.db.Cache().Evictions()
	}
	return c
}

func (a tierCounters) sub(b tierCounters) tierCounters {
	return tierCounters{
		registered: a.registered - b.registered, started: a.started - b.started,
		cacheHits: a.cacheHits - b.cacheHits, peerHits: a.peerHits - b.peerHits,
		coalesced: a.coalesced - b.coalesced, remoteHits: a.remoteHits - b.remoteHits,
		promiseWaits: a.promiseWaits - b.promiseWaits, fills: a.fills - b.fills,
		cacheEvictions: a.cacheEvictions - b.cacheEvictions,
		maxActive:      a.maxActive,
	}
}

// runTierCold drives a coordinator with two cache-peering workers and
// HTTP engines in an open loop at a fixed rate. Each request is timed
// from its due time.
func runTierCold(cfg config) (*report, error) {
	ctx := context.Background()
	n := int(cfg.seconds.Seconds() * tierRate)
	// The ring the coordinator will build; member URLs do not affect
	// placement, only IDs.
	ring := shard.NewRing([]shard.Member{{ID: "w1"}, {ID: "w2"}}, shard.DefaultVNodes)
	sched, err := tierSchedule(cfg.seed, n, ring)
	if err != nil {
		return nil, err
	}
	r := newReplay()
	classes := map[string]int{}
	for _, q := range sched {
		classes[q.class]++
		if q.class == "cold" {
			templateQuery{tmpl: 1, v1: q.word}.want(r)
		}
	}
	if err := r.resolve(buildCorpus()); err != nil {
		return nil, err
	}
	expected := map[string]rowSet{}
	for _, q := range sched {
		if _, ok := expected[q.sql]; ok {
			continue
		}
		rows, err := templateQuery{tmpl: 1, v1: q.word}.expect(r)
		if err != nil {
			return nil, err
		}
		expected[q.sql] = rows
	}

	serverMeter, clientMeter := &engineMeter{}, &engineMeter{}
	es, err := startEngineServers(r, cfg.seed, serverMeter)
	if err != nil {
		return nil, err
	}
	defer es.close()
	env, setupS, err := repeatSetup(cfg, quickSetupRuns, func(dir string) (*tierEnv, error) {
		return startTier(ctx, dir, es, clientMeter)
	}, (*tierEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	rep := newReport()
	rep.metrics["setup_s"] = setupS
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
	c0 := env.counters()
	s0, cm0 := serverMeter.snap(), clientMeter.snap()
	serverMeter.resetPeak()

	settle()
	rt0 := readRuntime()
	heap := startHeapPeak()
	res := &httpResult{}
	var late samples
	sem := make(chan struct{}, tierInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range sched {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / tierRate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		late.add(time.Since(due))
		wg.Add(1)
		go func(i int, q tierReq, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			traced := cfg.trace && i%2 == 0
			res.one(ctx, cl, q.sql, traced, expected[q.sql], spans, probe, due)
		}(i, q, due)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep.metrics["peak_heap_mb"] = heap.finish()
	rt1 := readRuntime()

	res.into(rep, elapsed, cfg.trace)
	queries := float64(rep.attempted)
	c := env.counters().sub(c0)
	s1, cm1 := serverMeter.snap(), clientMeter.snap()
	calls := float64(s1.calls - s0.calls)
	rep.metrics["loadgen.late_ms_p99"] = late.pct(0.99)
	rep.metrics["async.pump.calls_per_query"] = ratio(float64(c.registered), queries)
	rep.metrics["async.pump.started_per_query"] = ratio(float64(c.started), queries)
	rep.metrics["async.pump.cache_hit_frac"] = ratio(float64(c.cacheHits), float64(c.registered))
	rep.metrics["async.pump.coalesced_per_query"] = ratio(float64(c.coalesced), queries)
	rep.metrics["async.pump.max_active"] = float64(c.maxActive)
	rep.metrics["cache.hit_frac"] = ratio(float64(c.cacheHits), float64(c.registered))
	rep.metrics["cache.evictions_per_s"] = float64(c.cacheEvictions) / elapsed.Seconds()
	rep.metrics["search.calls_per_query"] = ratio(calls, queries)
	rep.metrics["search.busy_ms_per_query"] = ratio(float64(s1.busyNS-s0.busyNS)/1e6, queries)
	rep.metrics["search.max_inflight"] = float64(serverMeter.peakInflight())
	rep.metrics["search.http_overhead_us"] = ratio(float64((cm1.busyNS-cm0.busyNS)-(s1.busyNS-s0.busyNS))/1e3, calls)
	rep.metrics["shard.peer_hit_frac"] = ratio(float64(c.peerHits), float64(c.registered))
	rep.metrics["shard.remote_hits_per_query"] = ratio(float64(c.remoteHits), queries)
	rep.metrics["shard.promise_waits_per_query"] = ratio(float64(c.promiseWaits), queries)
	rep.metrics["shard.fills_per_query"] = ratio(float64(c.fills), queries)
	// The pump counts a call served by the other worker's cache as
	// started too: it was dispatched, then answered by the peer.
	engine := c.started - c.peerHits
	reg := float64(c.registered)
	rep.metrics["tier.cold_share"] = ratio(float64(engine), reg)
	rep.metrics["tier.peer_share"] = ratio(float64(c.peerHits), reg)
	rep.metrics["tier.local_share"] = ratio(float64(c.cacheHits), reg)
	runtimeMetrics(rep.metrics, rt0, rt1, queries)
	if cfg.trace {
		spans.layerMetrics(rep.metrics)
	}

	// Mechanism: the realized call outcomes match the schedule. Cold
	// requests are the only ones that reach an engine; every call of a
	// peer or local request is a cache hit, local or on the other worker;
	// a peer request finds about half its keys homed on the other worker.
	perQuery := int64(len(paperStates()))
	if rep.failed == 0 {
		if want := perQuery * int64(classes["cold"]); engine != want || int64(calls) != want {
			rep.fail("engine calls: pump %d, engines served %.0f, want %d (%d cold requests)",
				engine, calls, want, classes["cold"])
		}
		if want := perQuery * int64(len(sched)); c.registered != want {
			rep.fail("registered %d calls, want %d", c.registered, want)
		}
		if c.cacheHits+c.started != c.registered {
			rep.fail("%d cache hits + %d dispatched calls, want %d registered", c.cacheHits, c.started, c.registered)
		}
		peerCalls := float64(perQuery) * float64(classes["peer"])
		if share := ratio(float64(c.peerHits), peerCalls); classes["peer"] > 0 && (share < 0.25 || share > 0.75) {
			rep.fail("peer requests found %.2f of their keys on the other worker, want about half", share)
		}
	}
	// Mechanism: the tier keeps up with the offered rate. Past the
	// stated limit the open loop is saturating it, and qps (fixed by the
	// schedule until then) is what moves. Traced requests carry span
	// overhead, so only untraced runs are held to the limit.
	if p99 := rep.metrics["query_p99_ms"]; !cfg.trace && p99 > tierLimitMS {
		rep.fail("p99 %.1fms exceeds the stated %dms limit at %d req/s", p99, tierLimitMS, tierRate)
	}
	logf("tier_cold: %d requests (%d cold, %d peer, %d local) in %.1fs, p50 %.2fms p99 %.2fms, late p99 %.2fms",
		rep.attempted, classes["cold"], classes["peer"], classes["local"], elapsed.Seconds(),
		rep.metrics["query_p50_ms"], rep.metrics["query_p99_ms"], rep.metrics["loadgen.late_ms_p99"])
	return rep, nil
}
