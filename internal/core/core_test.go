package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/sqlparse"
	"repro/internal/types"
	"repro/internal/websim"
)

// newPaperDB opens a DB with zero-latency engines and all paper tables.
func newPaperDB(t testing.TB, cfg Config) *DB {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	corpus := websim.Default()
	db.RegisterEngine(search.NewDelayed(websim.NewAltaVista(corpus), search.ZeroLatency(), 1), "AV")
	db.RegisterEngine(search.NewDelayed(websim.NewGoogle(corpus), search.ZeroLatency(), 2), "G")
	loadTables(t, db)
	return db
}

func loadTables(t testing.TB, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE States (Name VARCHAR, Population INT, Capital VARCHAR)`)
	states, _ := db.Catalog().Get("States")
	for _, s := range datasets.States {
		if _, err := states.Insert(types.Tuple{types.Str(s.Name), types.Int(s.Population), types.Str(s.Capital)}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CREATE TABLE Sigs (Name VARCHAR)`)
	sigs, _ := db.Catalog().Get("Sigs")
	for _, s := range datasets.Sigs {
		sigs.Insert(types.Tuple{types.Str(s)})
	}
	mustExec(t, db, `CREATE TABLE CSFields (Name VARCHAR)`)
	fields, _ := db.Catalog().Get("CSFields")
	for _, f := range datasets.CSFields {
		fields.Insert(types.Tuple{types.Str(f)})
	}
}

func mustExec(t testing.TB, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.ExecContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func mustQuery(t testing.TB, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// ---------------------------------------------------------------------------
// DDL / DML

func TestCreateInsertSelect(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE T (A INT, B VARCHAR)`)
	mustExec(t, db, `INSERT INTO T VALUES (1, 'one'), (2, 'two')`)
	res := mustQuery(t, db, `SELECT B FROM T WHERE A = 2`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "two" {
		t.Errorf("rows: %v", res.Rows)
	}
	mustExec(t, db, `DROP TABLE T`)
	if _, err := db.QueryContext(context.Background(), `SELECT * FROM T`); err == nil {
		t.Error("dropped table still queryable")
	}
}

func TestCreateReservedNameRejected(t *testing.T) {
	db := newPaperDB(t, Config{})
	if _, err := db.ExecContext(context.Background(), `CREATE TABLE WebCount (X INT)`); err == nil {
		t.Error("virtual table names are reserved")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE T (A INT)`)
	mustExec(t, db, `INSERT INTO T VALUES (42)`)
	db.Close()

	db2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustQuery(t, db2, `SELECT A FROM T`)
	if len(res.Rows) != 1 || res.Rows[0][0].I() != 42 {
		t.Errorf("rows after reopen: %v", res.Rows)
	}
}

// ---------------------------------------------------------------------------
// Section 3.1 queries — shape assertions against the paper

func queryBothModes(t *testing.T, db *DB, sql string) (*Result, *Result) {
	t.Helper()
	db.SetAsync(false)
	syncRes := mustQuery(t, db, sql)
	db.SetAsync(true)
	asyncRes := mustQuery(t, db, sql)
	// Equivalence: identical multisets.
	if len(syncRes.Rows) != len(asyncRes.Rows) {
		t.Fatalf("%s: sync %d rows, async %d rows", sql, len(syncRes.Rows), len(asyncRes.Rows))
	}
	sk := make([]string, len(syncRes.Rows))
	ak := make([]string, len(asyncRes.Rows))
	for i := range syncRes.Rows {
		sk[i] = syncRes.Rows[i].Key()
		ak[i] = asyncRes.Rows[i].Key()
	}
	sort.Strings(sk)
	sort.Strings(ak)
	for i := range sk {
		if sk[i] != ak[i] {
			t.Fatalf("%s: sync/async multisets differ", sql)
		}
	}
	return syncRes, asyncRes
}

func TestSection31Query1(t *testing.T) {
	db := newPaperDB(t, Config{})
	res, _ := queryBothModes(t, db,
		`SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC`)
	want := []string{"California", "Washington", "New York", "Texas", "Michigan"}
	for i, w := range want {
		if got := res.Rows[i][0].AsString(); got != w {
			t.Errorf("Q1 rank %d: %s, want %s", i+1, got, w)
		}
	}
}

func TestSection31Query2(t *testing.T) {
	db := newPaperDB(t, Config{})
	res, _ := queryBothModes(t, db,
		`SELECT Name, Count / Population AS C FROM States, WebCount WHERE Name = T1 ORDER BY C DESC`)
	want := []string{"Alaska", "Washington", "Delaware", "Hawaii", "Wyoming"}
	for i, w := range want {
		if got := res.Rows[i][0].AsString(); got != w {
			t.Errorf("Q2 rank %d: %s, want %s", i+1, got, w)
		}
	}
}

func TestSection31Query3(t *testing.T) {
	db := newPaperDB(t, Config{})
	res, _ := queryBothModes(t, db,
		`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'four corners' ORDER BY Count DESC`)
	for i, w := range datasets.FourCornersStates {
		if got := res.Rows[i][0].AsString(); got != w {
			t.Fatalf("Q3 rank %d: %s, want %s", i+1, got, w)
		}
	}
	// Dramatic dropoff between 4th and 5th.
	fourth, _ := res.Rows[3][1].AsInt()
	fifth, _ := res.Rows[4][1].AsInt()
	if fourth < 3*fifth {
		t.Errorf("Q3 dropoff: 4th=%d 5th=%d", fourth, fifth)
	}
}

func TestSection31Query4(t *testing.T) {
	db := newPaperDB(t, Config{})
	res, _ := queryBothModes(t, db,
		`SELECT Capital, C.Count, Name, S.Count FROM States, WebCount C, WebCount S
		 WHERE Capital = C.T1 AND Name = S.T1 AND C.Count > S.Count`)
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r[0].AsString()
	}
	sort.Strings(got)
	want := append([]string{}, datasets.CommonWordCapitals...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Q4 capitals = %v, want %v", got, want)
	}
}

func TestSection31Query5(t *testing.T) {
	db := newPaperDB(t, Config{})
	res, _ := queryBothModes(t, db,
		`SELECT Name, URL, Rank FROM States, WebPages WHERE Name = T1 AND Rank <= 2 ORDER BY Name, Rank`)
	if len(res.Rows) != 100 { // 50 states x 2 URLs
		t.Fatalf("Q5 rows: %d", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		if res.Rows[i][0].AsString() != res.Rows[i+1][0].AsString() {
			t.Errorf("Q5 grouping broken at %d", i)
		}
		r1, _ := res.Rows[i][2].AsInt()
		r2, _ := res.Rows[i+1][2].AsInt()
		if r1 != 1 || r2 != 2 {
			t.Errorf("Q5 ranks at %d: %d,%d", i, r1, r2)
		}
	}
}

func TestSection31Query6(t *testing.T) {
	db := newPaperDB(t, Config{})
	res, _ := queryBothModes(t, db,
		`SELECT Name, AV.URL FROM States, WebPages_AV AV, WebPages_Google G
		 WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 5 AND G.Rank <= 5 AND AV.URL = G.URL`)
	if len(res.Rows) != 4 {
		t.Fatalf("Q6: %d agreements, want 4 (paper: 'only agreed on the relevance of 4 URLs')", len(res.Rows))
	}
	got := make(map[string]bool)
	for _, r := range res.Rows {
		got[r[0].AsString()] = true
	}
	for _, s := range datasets.Query6States {
		if !got[s] {
			t.Errorf("Q6 missing %s", s)
		}
	}
}

func TestSection41KnuthQuery(t *testing.T) {
	db := newPaperDB(t, Config{})
	res, _ := queryBothModes(t, db,
		`SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1 AND T2 = 'Knuth' ORDER BY Count DESC`)
	if len(res.Rows) != len(datasets.Sigs) {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for i, w := range datasets.KnuthSigs {
		if got := res.Rows[i][0].AsString(); got != w {
			t.Errorf("Knuth rank %d: %s, want %s", i+1, got, w)
		}
	}
	// "For all other Sigs, Count is 0."
	for _, r := range res.Rows[len(datasets.KnuthSigs):] {
		if n, _ := r[1].AsInt(); n != 0 {
			t.Errorf("non-Knuth sig %s has count %d", r[0].AsString(), n)
		}
	}
}

// ---------------------------------------------------------------------------
// Async plan shapes from SQL (EXPLAIN-level figure checks)

func TestExplainFigure3FromSQL(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	out, err := db.Explain(`SELECT Name, Count FROM Sigs, WebCount
		WHERE Name = T1 AND T2 = 'Knuth' ORDER BY Count DESC`)
	if err != nil {
		t.Fatal(err)
	}
	// The async section must show Sort above ReqSync above the dependent
	// join over an AEVScan (Figure 3).
	asyncPart := out[strings.Index(out, "asynchronous"):]
	for _, want := range []string{"Sort", "ReqSync", "Dependent Join", "AEVScan"} {
		if !strings.Contains(asyncPart, want) {
			t.Errorf("async plan missing %s:\n%s", want, out)
		}
	}
	if strings.Index(asyncPart, "Sort") > strings.Index(asyncPart, "ReqSync") {
		t.Errorf("Sort must be above ReqSync:\n%s", asyncPart)
	}
	if strings.Contains(asyncPart, "EVScan:") && !strings.Contains(asyncPart, "AEVScan") {
		t.Errorf("EVScan not converted:\n%s", asyncPart)
	}
}

func TestExplainFigure6SingleConsolidatedReqSync(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	out, err := db.Explain(`SELECT Name, AV.URL, G.URL FROM Sigs, WebPages_AV AV, WebPages_Google G
		WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 3 AND G.Rank <= 3`)
	if err != nil {
		t.Fatal(err)
	}
	asyncPart := out[strings.Index(out, "asynchronous"):]
	if got := strings.Count(asyncPart, "ReqSync"); got != 1 {
		t.Errorf("want exactly 1 consolidated ReqSync, got %d:\n%s", got, asyncPart)
	}
	if got := strings.Count(asyncPart, "AEVScan"); got != 2 {
		t.Errorf("want 2 AEVScans, got %d", got)
	}
}

// ---------------------------------------------------------------------------
// Async execution details

func TestAsyncCallCounts(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	res := mustQuery(t, db, `SELECT Name, Count FROM States, WebCount WHERE Name = T1`)
	if res.Stats.ExternalCalls != 50 {
		t.Errorf("external calls: %d, want 50", res.Stats.ExternalCalls)
	}
	st := db.Pump().Stats()
	if st.Registered != 50 || st.Started != 50 || st.Completed != 50 {
		t.Errorf("pump: %+v", st)
	}
	if st.MaxActive < 2 {
		t.Errorf("no overlap observed: %d", st.MaxActive)
	}
}

func TestCacheAvoidsDuplicateCalls(t *testing.T) {
	db := newPaperDB(t, Config{Async: true, CacheSize: 1024})
	q := `SELECT Name, Count FROM States, WebCount WHERE Name = T1`
	mustQuery(t, db, q)
	st1 := db.Pump().Stats()
	mustQuery(t, db, q)
	st2 := db.Pump().Stats()
	if st2.Registered-st1.Registered != 50 {
		t.Errorf("second run registrations: %d", st2.Registered-st1.Registered)
	}
	if st2.CacheHits-st1.CacheHits != 50 {
		t.Errorf("second run should be all cache hits: %d", st2.CacheHits-st1.CacheHits)
	}
}

func TestStreamingModeMatches(t *testing.T) {
	db := newPaperDB(t, Config{Async: true, StreamingReqSync: true})
	res := mustQuery(t, db, `SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC`)
	if len(res.Rows) != 50 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "California" {
		t.Errorf("streaming top: %v", res.Rows[0])
	}
}

func TestConcurrencyLimitRespected(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), Async: true, MaxConcurrentCalls: 4, MaxCallsPerDest: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	corpus := websim.Default()
	av := search.NewDelayed(websim.NewAltaVista(corpus), search.LatencyModel{Base: 2e6}, 1)
	db.RegisterEngine(av, "AV")
	loadTables(t, db)
	mustQuery(t, db, `SELECT Name, Count FROM States, WebCount WHERE Name = T1`)
	_, maxInFlight := av.Stats()
	if maxInFlight > 4 {
		t.Errorf("engine saw %d concurrent requests, limit 4", maxInFlight)
	}
	if pumpMax := db.Pump().Stats().MaxActive; pumpMax > 4 {
		t.Errorf("pump max active %d, limit 4", pumpMax)
	}
}

// ---------------------------------------------------------------------------
// Result formatting

func TestResultFormat(t *testing.T) {
	db := newPaperDB(t, Config{})
	res := mustQuery(t, db, `SELECT Name, Population FROM States WHERE Name = 'Utah'`)
	out := res.Format()
	for _, want := range []string{"Name", "Population", "Utah", "(1 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	ddl := mustExec(t, db, `CREATE TABLE Tmp (A INT)`)
	if !strings.Contains(ddl.Format(), "ok") {
		t.Errorf("DDL format: %s", ddl.Format())
	}
}

// ---------------------------------------------------------------------------
// Error handling

func TestExecErrors(t *testing.T) {
	db := newPaperDB(t, Config{})
	for _, sql := range []string{
		`SELEC Name FROM States`,
		`INSERT INTO Missing VALUES (1)`,
		`SELECT Name FROM States WHERE Ghost = 1`,
		`DROP TABLE Missing`,
	} {
		if _, err := db.ExecContext(context.Background(), sql); err == nil {
			t.Errorf("%s should error", sql)
		}
	}
}

func TestNoEnginesRegistered(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE T (A VARCHAR)`)
	mustExec(t, db, `INSERT INTO T VALUES ('x')`)
	if _, err := db.QueryContext(context.Background(), `SELECT Count FROM T, WebCount WHERE A = T1`); err == nil {
		t.Error("virtual table without engines should error")
	}
}

func TestExplainSyncOnly(t *testing.T) {
	db := newPaperDB(t, Config{Async: false})
	out, err := db.Explain(`SELECT Name, Count FROM States, WebCount WHERE Name = T1`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "asynchronous") {
		t.Error("sync-mode explain should omit the async section")
	}
	if !strings.Contains(out, "EVScan") {
		t.Errorf("explain missing EVScan:\n%s", out)
	}
}

func TestExplainCost(t *testing.T) {
	db := newPaperDB(t, Config{})
	out, err := db.ExplainCost(
		`SELECT Name, URL FROM States, WebPages WHERE Name = T1 AND Rank <= 2`,
		plan.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "calls≈50") {
		t.Errorf("cost estimate missing call count:\n%s", out)
	}
	est, err := db.Estimate(
		`SELECT Name, URL FROM States, WebPages WHERE Name = T1 AND Rank <= 2`,
		plan.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if est.ExternalCalls != 50 || est.Cardinality != 100 {
		t.Errorf("estimate: %+v", est)
	}
	if est.Improvement <= 1 {
		t.Errorf("async should be predicted faster: %+v", est)
	}
}

func TestUnionAllAndDistinct(t *testing.T) {
	db := newPaperDB(t, Config{})
	// Pure stored-table unions first.
	res := mustQuery(t, db, `SELECT Name FROM Sigs UNION ALL SELECT Name FROM Sigs`)
	if len(res.Rows) != 2*len(datasets.Sigs) {
		t.Fatalf("UNION ALL rows: %d", len(res.Rows))
	}
	res = mustQuery(t, db, `SELECT Name FROM Sigs UNION SELECT Name FROM Sigs`)
	if len(res.Rows) != len(datasets.Sigs) {
		t.Fatalf("UNION rows: %d", len(res.Rows))
	}
	// Mixed column counts are rejected.
	if _, err := db.QueryContext(context.Background(), `SELECT Name FROM Sigs UNION SELECT Name, Population FROM States`); err == nil {
		t.Error("arity mismatch should error")
	}
	// ORDER BY/LIMIT allowed only on the final term.
	if _, err := db.QueryContext(context.Background(), `SELECT Name FROM Sigs ORDER BY Name UNION SELECT Name FROM CSFields`); err == nil {
		t.Error("ORDER BY on non-final term should error")
	}
}

func TestUnionOverVirtualTables(t *testing.T) {
	// The Section 4.5.2 union scenario end to end: a UNION whose branches
	// each carry a dependent join over WebCount. The planner lowers UNION
	// to Distinct over a bag union; the async rewriter percolates both
	// branches' ReqSyncs above the (non-clashing) bag union, consolidates
	// them, and stops below the Distinct.
	db := newPaperDB(t, Config{Async: true})
	q := `SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1 AND T2 = 'Knuth'
	      UNION
	      SELECT Name, Count FROM CSFields, WebCount WHERE Name = T1 AND T2 = 'Knuth'`
	res, _ := queryBothModes(t, db, q)
	if len(res.Rows) != len(datasets.Sigs)+len(datasets.CSFields) {
		t.Fatalf("union rows: %d", len(res.Rows))
	}
	// Plan shape: exactly one consolidated ReqSync below the Distinct,
	// above the bag union.
	st, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	op, err := db.planStatement(st.(*sqlparse.Union))
	if err != nil {
		t.Fatal(err)
	}
	shape := exec.Shape(op)
	want := "Distinct(ReqSync(Union All(" +
		"Project(Dependent Join(Scan,AEVScan)),Project(Dependent Join(Scan,AEVScan)))))"
	if shape != want {
		t.Fatalf("shape = %s\nwant   %s", shape, want)
	}
}

func TestUnionAllStreamsThrough(t *testing.T) {
	// UNION ALL with no Distinct: the consolidated ReqSync becomes the root.
	db := newPaperDB(t, Config{Async: true})
	q := `SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1
	      UNION ALL
	      SELECT Name, Count FROM CSFields, WebCount WHERE Name = T1`
	res, _ := queryBothModes(t, db, q)
	if len(res.Rows) != len(datasets.Sigs)+len(datasets.CSFields) {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	st, _ := sqlparse.Parse(q)
	op, err := db.planStatement(st.(*sqlparse.Union))
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.Shape(op); !strings.HasPrefix(got, "ReqSync(Union All(") {
		t.Fatalf("shape = %s", got)
	}
}

func TestUnionOrderByAppliesToWhole(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	q := `SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1 AND T2 = 'Knuth'
	      UNION ALL
	      SELECT Name, Count FROM CSFields, WebCount WHERE Name = T1 AND T2 = 'Knuth'
	      ORDER BY Count DESC LIMIT 3`
	res := mustQuery(t, db, q)
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "SIGACT" {
		t.Errorf("top row: %v", res.Rows[0])
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Compare(res.Rows[i][1]) < 0 {
			t.Errorf("order: %v", res.Rows)
		}
	}
}

// A nil context selects the no-deadline default at every entry point —
// the replacement for the removed context-free Exec/Query wrappers.
func TestNilContextDefaults(t *testing.T) {
	db := newPaperDB(t, Config{})
	if _, err := db.ExecContext(nil, `CREATE TABLE NilCtx (V INT)`); err != nil {
		t.Fatalf("ExecContext(nil): %v", err)
	}
	if _, err := db.ExecContext(nil, `INSERT INTO NilCtx VALUES (7)`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	res, err := db.QueryContext(nil, `SELECT V FROM NilCtx`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I() != 7 {
		t.Fatalf("QueryContext(nil): %+v %v", res, err)
	}
}
