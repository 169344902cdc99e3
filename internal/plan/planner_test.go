package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sqlparse"
	"repro/internal/types"
	"repro/internal/vtab"
)

// stubEngine provides deterministic counts and pages for planner tests.
type stubEngine struct{ name string }

func (s *stubEngine) Name() string { return s.name }
func (s *stubEngine) Count(q string) (int64, error) {
	return int64(len(q)), nil
}
func (s *stubEngine) Search(q string, k int) ([]search.Result, error) {
	var out []search.Result
	for i := 1; i <= k && i <= 3; i++ {
		out = append(out, search.Result{URL: q + "/u", Rank: i, Date: "1999-01-01"})
	}
	return out, nil
}
func (s *stubEngine) Fetch(url string) (string, error) { return "<html>" + url + "</html>", nil }

func newPlanner(t *testing.T) *Planner {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	states, err := cat.Create("States", []catalog.ColumnDef{
		{Name: "Name", Type: schema.TString},
		{Name: "Population", Type: schema.TInt},
		{Name: "Capital", Type: schema.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []types.Tuple{
		{types.Str("Utah"), types.Int(2100), types.Str("Salt Lake City")},
		{types.Str("Iowa"), types.Int(2862), types.Str("Des Moines")},
		{types.Str("Ohio"), types.Int(11209), types.Str("Columbus")},
	} {
		if _, err := states.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	er := search.NewRegistry()
	er.Register(&stubEngine{name: "altavista"}, "AV")
	er.Register(&stubEngine{name: "google"}, "G")
	return New(cat, vtab.NewRegistry(er))
}

func planSQL(t *testing.T, p *Planner, sql string) exec.Operator {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	op, err := p.PlanSelect(sel)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return op
}

func planErr(t *testing.T, p *Planner, sql string) error {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.PlanSelect(sel)
	if err == nil {
		t.Fatalf("plan %q should fail", sql)
	}
	return err
}

func runPlan(t *testing.T, op exec.Operator) []types.Tuple {
	t.Helper()
	rows, err := exec.Run(exec.NewContext(), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPlanSimpleScan(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT * FROM States`)
	if exec.Shape(op) != "Scan" {
		t.Errorf("shape: %s", exec.Shape(op))
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("rows")
	}
}

func TestPlanFilterProjection(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name FROM States WHERE Population > 2500`)
	if got := exec.Shape(op); got != "Project(Select(Scan))" {
		t.Errorf("shape: %s", got)
	}
	rows := runPlan(t, op)
	if len(rows) != 2 {
		t.Errorf("rows: %v", rows)
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Errorf("projection width: %v", r)
		}
	}
}

func TestPlanQuery1ShapeMatchesFigure(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC`)
	// Sort(Project(DependentJoin(Scan, EVScan))) — Figure 2 plus the
	// projection our planner always emits for explicit select lists.
	if got := exec.Shape(op); got != "Sort(Project(Dependent Join(Scan,EVScan)))" {
		t.Fatalf("shape: %s", got)
	}
	rows := runPlan(t, op)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	// Counts come from the stub (len of query = len of state name); Ohio,
	// Utah, Iowa all length 4 — verify descending order anyway.
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].Compare(rows[i][1]) < 0 {
			t.Errorf("sort order: %v", rows)
		}
	}
}

func TestPlanBindingToConstant(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'four corners'`)
	rows := runPlan(t, op)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	// Stub count = len("NAME near four corners").
	for _, r := range rows {
		wantQ := r[0].AsString() + " near four corners"
		if r[1].I() != int64(len(wantQ)) {
			t.Errorf("default SearchExp %%1 near %%2 not used: %v", r)
		}
	}
}

func TestPlanExplicitSearchExp(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, Count FROM States, WebCount
		WHERE SearchExp = '"%1" AND politics' AND Name = T1`)
	rows := runPlan(t, op)
	for _, r := range rows {
		wantQ := `"` + r[0].AsString() + `" AND politics`
		if r[1].I() != int64(len(wantQ)) {
			t.Errorf("explicit SearchExp ignored: %v (want len %d)", r, len(wantQ))
		}
	}
}

func TestPlanRankLimitExtraction(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, URL, Rank FROM States, WebPages WHERE Name = T1 AND Rank <= 2`)
	rows := runPlan(t, op)
	if len(rows) != 6 { // 3 states x 2 ranks
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if n, _ := r[2].AsInt(); n > 2 {
			t.Errorf("rank limit violated: %v", r)
		}
	}
	// Strict bound Rank < 2 means limit 1.
	op = planSQL(t, p, `SELECT Name, URL, Rank FROM States, WebPages WHERE Name = T1 AND Rank < 2`)
	if got := len(runPlan(t, op)); got != 3 {
		t.Errorf("strict rank bound rows: %d", got)
	}
}

func TestPlanDefaultRankLimit(t *testing.T) {
	p := newPlanner(t)
	p.DefaultRankLimit = 3
	op := planSQL(t, p, `SELECT Name, URL FROM States, WebPages WHERE Name = T1`)
	rows := runPlan(t, op)
	if len(rows) != 9 { // capped by the default guard (stub returns <= 3)
		t.Errorf("default guard rows: %d", len(rows))
	}
}

func TestPlanQuery4TwoOccurrences(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Capital, C.Count, Name, S.Count
		FROM States, WebCount C, WebCount S
		WHERE Capital = C.T1 AND Name = S.T1 AND C.Count > S.Count`)
	rows := runPlan(t, op)
	// Stub count = len(name): capitals longer than state names win.
	// "Salt Lake City"(14) > "Utah"(4), "Des Moines"(10) > "Iowa"(4),
	// "Columbus"(8) > "Ohio"(4) — all three.
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		if r[1].I() <= r[3].I() {
			t.Errorf("retained predicate not applied: %v", r)
		}
	}
}

func TestPlanEngineSuffixes(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, AV.URL FROM States, WebPages_AV AV, WebPages_Google G
		WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 1 AND G.Rank <= 1 AND AV.URL = G.URL`)
	rows := runPlan(t, op)
	// Stub returns identical URLs for both engines, so every state joins.
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	shape := exec.Shape(op)
	if !strings.Contains(shape, "Dependent Join(Dependent Join(Scan,EVScan),EVScan)") {
		t.Errorf("stacked dependent joins: %s", shape)
	}
}

func TestPlanUnboundInputErrors(t *testing.T) {
	p := newPlanner(t)
	err := planErr(t, p, `SELECT Name, Count FROM States, WebCount ORDER BY Count DESC`)
	if !strings.Contains(err.Error(), "no search terms bound") {
		t.Errorf("error: %v", err)
	}
}

func TestPlanJoinOrderViolationErrors(t *testing.T) {
	p := newPlanner(t)
	// WebCount appears BEFORE States in FROM: T1 cannot be bound.
	err := planErr(t, p, `SELECT Name, Count FROM WebCount, States WHERE Name = T1`)
	if !strings.Contains(err.Error(), "FROM order") {
		t.Errorf("error: %v", err)
	}
}

func TestPlanVirtualFirstWithConstants(t *testing.T) {
	p := newPlanner(t)
	// A virtual table first in FROM is fine when bound by constants.
	op := planSQL(t, p, `SELECT Count FROM WebCount WHERE T1 = 'California'`)
	rows := runPlan(t, op)
	if len(rows) != 1 || rows[0][0].I() != int64(len("California")) {
		t.Fatalf("rows: %v", rows)
	}
}

func TestPlanAggregates(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Capital, COUNT(*) AS n, SUM(Population) AS s
		FROM States GROUP BY Capital ORDER BY n DESC`)
	rows := runPlan(t, op)
	if len(rows) != 3 {
		t.Fatalf("groups: %v", rows)
	}
	for _, r := range rows {
		if r[1].I() != 1 {
			t.Errorf("count per capital: %v", r)
		}
	}
	// Global aggregate.
	op = planSQL(t, p, `SELECT COUNT(*) FROM States`)
	rows = runPlan(t, op)
	if len(rows) != 1 || rows[0][0].I() != 3 {
		t.Fatalf("global count: %v", rows)
	}
	// Non-grouped select item must be rejected.
	planErr(t, p, `SELECT Name, COUNT(*) FROM States GROUP BY Capital`)
	// Star with aggregation is rejected.
	planErr(t, p, `SELECT * FROM States GROUP BY Capital`)
}

func TestPlanDistinctAndLimit(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT DISTINCT Capital FROM States LIMIT 2`)
	if got := exec.Shape(op); got != "Limit(Distinct(Project(Scan)))" {
		t.Errorf("shape: %s", got)
	}
	if len(runPlan(t, op)) != 2 {
		t.Error("limit")
	}
}

func TestPlanOrderByAlias(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, Count / Population AS C FROM States, WebCount
		WHERE Name = T1 ORDER BY C DESC`)
	rows := runPlan(t, op)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].Compare(rows[i][1]) < 0 {
			t.Errorf("order by alias: %v", rows)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	p := newPlanner(t)
	cases := []string{
		`SELECT * FROM Missing`,
		`SELECT Nope FROM States`,
		`SELECT Name FROM States S, States S`,            // duplicate alias
		`SELECT Name FROM States WHERE Ghost = 1`,        // unknown column
		`SELECT Name FROM States, WebCount WHERE x = T1`, // unknown binding column
	}
	for _, sql := range cases {
		planErr(t, p, sql)
	}
}

func TestPlanAmbiguousColumn(t *testing.T) {
	p := newPlanner(t)
	err := planErr(t, p, `SELECT Count FROM States, WebCount C, WebCount S
		WHERE Capital = C.T1 AND Name = S.T1`)
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("error: %v", err)
	}
}

func TestPlanCrossJoinStoredTables(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT S1.Name, S2.Name FROM States S1, States S2`)
	if got := exec.Shape(op); got != "Project(Cross-Product(Scan,Scan))" {
		t.Errorf("shape: %s", got)
	}
	if len(runPlan(t, op)) != 9 {
		t.Error("cross size")
	}
}

func TestPlanEquiJoinBecomesHashJoin(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT S1.Name FROM States S1, States S2 WHERE S1.Name = S2.Name`)
	if got := exec.Shape(op); got != "Project(Hash Join(Scan,Scan))" {
		t.Errorf("equality should select a hash join: %s", got)
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("join rows")
	}
}

func TestPlanEquiJoinWithResidual(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT S1.Name FROM States S1, States S2
		WHERE S1.Name = S2.Name AND S1.Population < S2.Population + 1`)
	if got := exec.Shape(op); got != "Project(Hash Join(Scan,Scan))" {
		t.Errorf("residual should ride the hash join: %s", got)
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("join rows")
	}
}

func TestPlanNonEquiJoinStaysNestedLoop(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT S1.Name FROM States S1, States S2 WHERE S1.Population < S2.Population`)
	if got := exec.Shape(op); got != "Project(Join(Scan,Scan))" {
		t.Errorf("non-equi predicate must stay nested-loop: %s", got)
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("join rows")
	}
}

func TestPlanTinyBuildSideStaysNestedLoop(t *testing.T) {
	p := newPlanner(t)
	one, err := p.Cat.Create("One", []catalog.ColumnDef{{Name: "Name", Type: schema.TString}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Insert(types.Tuple{types.Str("Utah")}); err != nil {
		t.Fatal(err)
	}
	op := planSQL(t, p, `SELECT S.Name FROM States S, One O WHERE S.Name = O.Name`)
	if got := exec.Shape(op); got != "Project(Join(Scan,Scan))" {
		t.Errorf("single-row build side must stay nested-loop: %s", got)
	}
	if len(runPlan(t, op)) != 1 {
		t.Error("join rows")
	}
}

func TestPlanDistinctExistenceBecomesSemiJoin(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT DISTINCT S1.Name FROM States S1, States S2 WHERE S1.Capital = S2.Capital`)
	if got := exec.Shape(op); got != "Distinct(Project(Hash Semi Join(Scan,Scan)))" {
		t.Errorf("existence-only hash join should degrade to a semi-join: %s", got)
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("semi-join rows")
	}
	// A projection that keeps right-side columns must keep the full join.
	op = planSQL(t, p, `SELECT DISTINCT S2.Name FROM States S1, States S2 WHERE S1.Capital = S2.Capital`)
	if got := exec.Shape(op); got != "Distinct(Project(Hash Join(Scan,Scan)))" {
		t.Errorf("projection needs the build side, no semi-join: %s", got)
	}
}

func TestPlanWebFetch(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Content, Status FROM WebFetch WHERE URL = 'www.x.com'`)
	rows := runPlan(t, op)
	if len(rows) != 1 || rows[0][1].I() != 200 {
		t.Fatalf("webfetch: %v", rows)
	}
	if !strings.Contains(rows[0][0].AsString(), "www.x.com") {
		t.Errorf("content: %v", rows[0])
	}
	// Unbound URL errors at plan time.
	planErr(t, p, `SELECT Content FROM WebFetch`)
}
