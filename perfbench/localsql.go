package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/storage"
	"repro/internal/types"
)

// local_sql sizes. The fact table is several times the 64-frame
// (256 KiB) per-heap buffer pool, so every scan of it misses; the
// dimension table fits in its pool and stays resident.
const (
	factRows   = 60000
	dimRows    = 1500
	numCats    = 20
	numRegions = 10
	insertRows = 100 // rows per batched INSERT
	loadBatch  = 1000
)

// factRow is one generated row of Fact(id, dim_id, cat, qty, amount).
type factRow struct {
	id, dim     int
	cat         string
	qty, amount int64
}

// localData is the generated database plus the statement stream.
type localData struct {
	fact    []factRow
	regions []string // region of each dim id
	stmts   []localStmt
}

// localStmt is one statement of the seeded stream with its expected
// result (reads) or row count (writes).
type localStmt struct {
	kind   string // "groupby", "join", "topk", "distinct", "insert"
	sql    string
	expect rowSet
	rows   int
}

func genLocal(seed int64, nStmts int) *localData {
	rng := search.NewRand(seed)
	d := &localData{regions: make([]string, dimRows)}
	for i := range d.regions {
		d.regions[i] = fmt.Sprintf("r%d", rng.Intn(numRegions))
	}
	d.fact = make([]factRow, factRows)
	for i := range d.fact {
		d.fact[i] = factRow{
			id:     i,
			dim:    rng.Intn(dimRows),
			cat:    fmt.Sprintf("c%d", rng.Intn(numCats)),
			qty:    int64(1 + rng.Intn(100)),
			amount: int64(1 + rng.Intn(10000)),
		}
	}
	nextIns := 0
	for i := 0; i < nStmts; i++ {
		// A fixed rotation keeps the statement mix identical across
		// seeds and run lengths; the seed draws the parameters.
		switch i % 5 {
		case 0:
			d.stmts = append(d.stmts, d.groupBy(int64(20+rng.Intn(60))))
		case 1:
			d.stmts = append(d.stmts, d.join(int64(30+rng.Intn(40))))
		case 2:
			d.stmts = append(d.stmts, d.topK(fmt.Sprintf("c%d", rng.Intn(numCats)), 5+rng.Intn(20)))
		case 3:
			d.stmts = append(d.stmts, d.distinct(int64(3000+rng.Intn(4000))))
		default:
			var vals []string
			for j := 0; j < insertRows; j++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, 'n%d', %d)", nextIns, rng.Intn(dimRows), rng.Intn(1000), 1+rng.Intn(10000)))
				nextIns++
			}
			d.stmts = append(d.stmts, localStmt{kind: "insert", sql: "INSERT INTO Ins VALUES " + strings.Join(vals, ", "), rows: insertRows})
		}
	}
	return d
}

// groupBy: scan + filter + GROUP BY over the fact table.
func (d *localData) groupBy(k int64) localStmt {
	type agg struct{ n, sum int64 }
	groups := map[string]*agg{}
	for _, r := range d.fact {
		if r.qty > k {
			g := groups[r.cat]
			if g == nil {
				g = &agg{}
				groups[r.cat] = g
			}
			g.n++
			g.sum += r.amount
		}
	}
	var rows [][]any
	for c, g := range groups {
		rows = append(rows, []any{c, g.n, g.sum})
	}
	return localStmt{kind: "groupby",
		sql:    fmt.Sprintf("SELECT cat, COUNT(*), SUM(amount) FROM Fact WHERE qty > %d GROUP BY cat", k),
		expect: canonRows(rows)}
}

// join: hash join with the dimension table, then aggregate.
func (d *localData) join(k int64) localStmt {
	type agg struct{ n, sum int64 }
	groups := map[string]*agg{}
	for _, r := range d.fact {
		if r.qty <= k {
			reg := d.regions[r.dim]
			g := groups[reg]
			if g == nil {
				g = &agg{}
				groups[reg] = g
			}
			g.n++
			g.sum += r.amount
		}
	}
	var rows [][]any
	for reg, g := range groups {
		rows = append(rows, []any{reg, g.n, g.sum})
	}
	return localStmt{kind: "join",
		sql: fmt.Sprintf("SELECT region, COUNT(*), SUM(amount) FROM Fact, Dim "+
			"WHERE Fact.dim_id = Dim.id AND Fact.qty <= %d GROUP BY region", k),
		expect: canonRows(rows)}
}

// topK: filter + ORDER BY ... LIMIT, with a unique tie-breaker.
func (d *localData) topK(cat string, k int) localStmt {
	var sel []factRow
	for _, r := range d.fact {
		if r.cat == cat {
			sel = append(sel, r)
		}
	}
	sort.Slice(sel, func(i, j int) bool {
		if sel[i].amount != sel[j].amount {
			return sel[i].amount > sel[j].amount
		}
		return sel[i].id < sel[j].id
	})
	if len(sel) > k {
		sel = sel[:k]
	}
	// The order is part of the answer: number the rows.
	var rows [][]any
	for i, r := range sel {
		rows = append(rows, []any{strconv.Itoa(i), r.id, r.amount})
	}
	return localStmt{kind: "topk",
		sql:    fmt.Sprintf("SELECT id, amount FROM Fact WHERE cat = '%s' ORDER BY amount DESC, id LIMIT %d", cat, k),
		expect: canonRows(rows)}
}

// distinct: DISTINCT over a filtered fact scan.
func (d *localData) distinct(k int64) localStmt {
	type key struct {
		cat string
		qty int64
	}
	seen := map[key]bool{}
	var rows [][]any
	for _, r := range d.fact {
		if r.amount < k && !seen[key{r.cat, r.qty}] {
			seen[key{r.cat, r.qty}] = true
			rows = append(rows, []any{r.cat, r.qty})
		}
	}
	return localStmt{kind: "distinct",
		sql:    fmt.Sprintf("SELECT DISTINCT cat, qty FROM Fact WHERE amount < %d", k),
		expect: canonRows(rows)}
}

// loadLocal creates the three tables and loads Fact and Dim through
// batched INSERT statements.
func loadLocal(ctx context.Context, db *core.DB, d *localData) error {
	for _, s := range []string{
		`CREATE TABLE Fact (id INT, dim_id INT, cat VARCHAR, qty INT, amount INT)`,
		`CREATE TABLE Dim (id INT, region VARCHAR, label VARCHAR)`,
		`CREATE TABLE Ins (id INT, dim_id INT, note VARCHAR, amount INT)`,
	} {
		if _, err := db.ExecContext(ctx, s); err != nil {
			return err
		}
	}
	var vals []string
	flush := func(table string) error {
		if len(vals) == 0 {
			return nil
		}
		_, err := db.ExecContext(ctx, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
		vals = vals[:0]
		return err
	}
	for i, reg := range d.regions {
		vals = append(vals, fmt.Sprintf("(%d, '%s', 'dim-%d')", i, reg, i))
		if len(vals) == loadBatch {
			if err := flush("Dim"); err != nil {
				return err
			}
		}
	}
	if err := flush("Dim"); err != nil {
		return err
	}
	for _, r := range d.fact {
		vals = append(vals, fmt.Sprintf("(%d, %d, '%s', %d, %d)", r.id, r.dim, r.cat, r.qty, r.amount))
		if len(vals) == loadBatch {
			if err := flush("Fact"); err != nil {
				return err
			}
		}
	}
	return flush("Fact")
}

// localStmts is the length of the generated statement stream; the run
// cycles through it.
const localStmts = 800

// runLocalSQL drives a seeded mix of analytic reads and batched inserts
// with one client in a closed loop. No virtual tables are involved.
func runLocalSQL(cfg config) (*report, error) {
	ctx := context.Background()
	data := genLocal(cfg.seed, localStmts)
	db, setupS, err := repeatSetup(cfg, setupRuns, func(dir string) (*core.DB, error) {
		db, err := core.Open(core.Config{Dir: dir})
		if err != nil {
			return nil, err
		}
		if err := loadLocal(ctx, db, data); err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	}, func(db *core.DB) { db.Close() })
	if err != nil {
		return nil, err
	}
	defer db.Close()
	// The generated rows are loaded; from here on only the statements
	// and their expected answers are needed.
	data.fact, data.regions = nil, nil

	rep := newReport()
	rep.metrics["setup_s"] = setupS
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
		rep.spans = spans
	}

	// Warm-up: one join brings the dimension table into its pool.
	for _, s := range data.stmts {
		if s.kind == "join" {
			if _, err := db.QueryContext(ctx, s.sql); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			break
		}
	}
	sizes := takeStorage(db)
	factPages, dimPages := sizes["Fact"].pages, sizes["Dim"].pages
	if factPages < 4*storage.DefaultPoolSize {
		rep.fail("fact table has %d pages, want at least %d (4x the buffer pool)", factPages, 4*storage.DefaultPoolSize)
	}
	if dimPages > storage.DefaultPoolSize {
		rep.fail("dimension table has %d pages, more than the %d-frame pool", dimPages, storage.DefaultPoolSize)
	}

	var readLat, writeLat, tracedLat, untracedLat samples
	var reads int64
	settle()
	st0 := takeStorage(db)
	rt0 := readRuntime()
	heap := startHeapPeak()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		s := data.stmts[i%len(data.stmts)]
		rep.attempted++
		if s.kind == "insert" {
			t0 := time.Now()
			res, err := db.ExecContext(ctx, s.sql)
			d := time.Since(t0)
			if err != nil {
				rep.failed++
				rep.fail("insert: %v", err)
				continue
			}
			if res.Stats.TuplesOut != int64(s.rows) {
				rep.failed++
				rep.fail("insert stored %d rows, want %d", res.Stats.TuplesOut, s.rows)
				continue
			}
			writeLat.add(d)
			continue
		}
		// Trace alternate rotations, so traced and untraced reads share
		// the same statement mix.
		traced := cfg.trace && (i/5)%2 == 0
		reads++
		d, rows, err := timedQuery(ctx, db, s.sql, traced, spans)
		if err != nil {
			rep.failed++
			rep.fail("%s: %v", s.kind, err)
			continue
		}
		var got rowSet
		if s.kind == "topk" {
			got = canonOrdered(rows)
		} else {
			got = canonTuples(rows)
		}
		if got != s.expect {
			rep.failed++
			rep.fail("%s %q: result differs from the generator's answer", s.kind, s.sql)
			continue
		}
		readLat.add(d)
		if cfg.trace {
			if traced {
				tracedLat.add(d)
			} else {
				untracedLat.add(d)
			}
		}
	}
	elapsed := time.Since(start)
	rep.metrics["peak_heap_mb"] = heap.finish()
	rt1 := readRuntime()
	st1 := takeStorage(db)

	lat := &readLat
	if cfg.trace {
		lat = &untracedLat
	}
	stmts := float64(rep.attempted)
	rep.metrics["query_p50_ms"] = lat.pct(0.5)
	rep.metrics["query_p90_ms"] = lat.pct(0.9)
	rep.metrics["query_p99_ms"] = lat.pct(0.99)
	rep.metrics["write_p50_ms"] = writeLat.pct(0.5)
	rep.metrics["qps"] = stmts / elapsed.Seconds()
	rep.metrics["failed_frac"] = ratio(float64(rep.failed), stmts)
	runtimeMetrics(rep.metrics, rt0, rt1, stmts)
	storageMetrics(rep.metrics, st0, st1, stmts)
	d := st1.delta(st0)
	rep.metrics["storage.pool_hit_frac.fact"] = d.hitFrac("Fact")
	rep.metrics["storage.pool_hit_frac.dim"] = d.hitFrac("Dim")
	if cfg.trace {
		spans.layerMetrics(rep.metrics)
		rep.metrics["trace.overhead_frac"] = ratio(tracedLat.pct(0.5), untracedLat.pct(0.5)) - 1
	}

	// Mechanism: every read scans the fact table, which streams through
	// its pool; the dimension table never leaves its pool; the writes land
	// in their own heap.
	if fm := d["Fact"].misses; reads > 0 && float64(fm) < 0.5*float64(reads)*float64(factPages) {
		rep.fail("fact table missed the pool %d times over %d scans of %d pages: it no longer streams from disk", fm, reads, factPages)
	}
	if dm := d["Dim"].misses; dm != 0 {
		rep.fail("dimension table missed the pool %d times after warm-up", dm)
	}
	if writeLat.n() > 0 && d["Ins"].pages == 0 {
		rep.fail("inserts appended no pages")
	}
	logf("local_sql: %d statements (%d reads, %d writes) in %.1fs; fact %d pages, dim %d pages",
		rep.attempted, reads, writeLat.n(), elapsed.Seconds(), factPages, dimPages)
	return rep, nil
}

// canonOrdered canonicalizes a result whose row order matters by
// numbering the rows.
func canonOrdered(rows []types.Tuple) rowSet {
	out := make([][]any, len(rows))
	for i, r := range rows {
		vals := []any{strconv.Itoa(i)}
		for _, v := range r {
			vals = append(vals, v)
		}
		out[i] = vals
	}
	return canonRows(out)
}
