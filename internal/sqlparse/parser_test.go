package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func parseSel(t *testing.T, src string) *Select {
	t.Helper()
	sel, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return sel
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize(`SELECT Name, Count FROM States WHERE Name = 'it''s' AND Rank <= 20 -- comment
		ORDER BY Count DESC`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "it's") {
		t.Errorf("escaped quote: %q", joined)
	}
	if !strings.Contains(joined, "<=") {
		t.Errorf("two-char operator: %q", joined)
	}
	if strings.Contains(joined, "comment") {
		t.Errorf("comment should be skipped: %q", joined)
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("missing EOF")
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := Tokenize(`a <> b != c < d > e >= f`)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tk := range toks {
		if tk.Kind == TokOp {
			ops = append(ops, tk.Text)
		}
	}
	want := []string{"<>", "<>", "<", ">", ">="}
	if strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string")
	}
	if _, err := Tokenize("a @ b"); err == nil {
		t.Error("bad character")
	}
	if _, err := Tokenize("a ! b"); err == nil {
		t.Error("lone bang")
	}
}

func TestParseQuery1(t *testing.T) {
	sel := parseSel(t, `Select Name, Count From States, WebCount Where Name = T1 Order By Count Desc`)
	if len(sel.Items) != 2 || sel.Items[0].Expr.String() != "Name" {
		t.Errorf("items: %+v", sel.Items)
	}
	if len(sel.From) != 2 || sel.From[0].Table != "States" || sel.From[1].Table != "WebCount" {
		t.Errorf("from: %+v", sel.From)
	}
	if sel.Where == nil || sel.Where.String() != "(Name = T1)" {
		t.Errorf("where: %v", sel.Where)
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc || sel.OrderBy[0].Expr.String() != "Count" {
		t.Errorf("order by: %+v", sel.OrderBy)
	}
	if sel.Limit != -1 {
		t.Error("limit default")
	}
}

func TestParseQuery2Alias(t *testing.T) {
	sel := parseSel(t, `Select Name, Count/Population As C From States, WebCount Where Name = T1 Order By C Desc`)
	if sel.Items[1].Alias != "C" {
		t.Errorf("alias: %+v", sel.Items[1])
	}
	if sel.Items[1].Expr.String() != "(Count / Population)" {
		t.Errorf("expr: %v", sel.Items[1].Expr)
	}
}

func TestParseQuery4TableAliases(t *testing.T) {
	sel := parseSel(t, `Select Capital, C.Count, Name, S.Count
		From States, WebCount C, WebCount S
		Where Capital = C.T1 and Name = S.T1 and C.Count > S.Count`)
	if sel.From[1].Alias != "C" || sel.From[2].Alias != "S" {
		t.Errorf("aliases: %+v", sel.From)
	}
	if sel.Items[1].Expr.String() != "C.Count" {
		t.Errorf("qualified item: %v", sel.Items[1].Expr)
	}
	w := sel.Where.String()
	if !strings.Contains(w, "(C.Count > S.Count)") {
		t.Errorf("where: %s", w)
	}
}

func TestParseQuery6(t *testing.T) {
	sel := parseSel(t, `Select Name, AV.URL
		From States, WebPages_AV AV, WebPages_Google G
		Where Name = AV.T1 and Name = G.T1 and AV.Rank <= 5 and G.Rank <= 5 and AV.URL = G.URL`)
	if sel.From[1].Table != "WebPages_AV" || sel.From[1].Alias != "AV" {
		t.Errorf("from: %+v", sel.From[1])
	}
}

func TestParseStarDistinctLimit(t *testing.T) {
	sel := parseSel(t, `SELECT DISTINCT * FROM Sigs LIMIT 10`)
	if !sel.Star || !sel.Distinct || sel.Limit != 10 {
		t.Errorf("star/distinct/limit: %+v", sel)
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := parseSel(t, `SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3`)
	// AND binds tighter than OR.
	if got := sel.Where.String(); got != "((a = 1) OR ((b = 2) AND (c = 3)))" {
		t.Errorf("precedence: %s", got)
	}
	sel = parseSel(t, `SELECT a FROM t WHERE NOT a = 1 AND b = 2`)
	if got := sel.Where.String(); got != "(NOT((a = 1)) AND (b = 2))" {
		t.Errorf("NOT precedence: %s", got)
	}
	sel = parseSel(t, `SELECT a + b * c FROM t`)
	if got := sel.Items[0].Expr.String(); got != "(a + (b * c))" {
		t.Errorf("arith precedence: %s", got)
	}
	sel = parseSel(t, `SELECT (a + b) * c FROM t`)
	if got := sel.Items[0].Expr.String(); got != "((a + b) * c)" {
		t.Errorf("parens: %s", got)
	}
}

func TestParseIsNull(t *testing.T) {
	sel := parseSel(t, `SELECT a FROM t WHERE a IS NULL AND t.b IS NOT NULL`)
	if got := sel.Where.String(); got != "((a IS NULL) AND (t.b IS NOT NULL))" {
		t.Errorf("is null: %s", got)
	}
	// Binds tighter than NOT, looser than arithmetic.
	sel = parseSel(t, `SELECT a FROM t WHERE NOT a + 1 IS NULL`)
	if got := sel.Where.String(); got != "NOT(((a + 1) IS NULL))" {
		t.Errorf("is null precedence: %s", got)
	}
	// IS must be followed by [NOT] NULL.
	if _, err := Parse(`SELECT a FROM t WHERE a IS 5`); err == nil {
		t.Error("IS 5 should not parse")
	}
	if _, err := Parse(`SELECT a FROM t WHERE a IS NOT 5`); err == nil {
		t.Error("IS NOT 5 should not parse")
	}
}

func TestParseAggregates(t *testing.T) {
	sel := parseSel(t, `SELECT Name, COUNT(*), SUM(Count) FROM t GROUP BY Name ORDER BY Name`)
	if len(sel.GroupBy) != 1 {
		t.Fatalf("group by: %+v", sel.GroupBy)
	}
	fc, ok := sel.Items[1].Expr.(*FuncCall)
	if !ok || !fc.Star || fc.Name != "COUNT" {
		t.Errorf("count(*): %+v", sel.Items[1].Expr)
	}
	fc2, ok := sel.Items[2].Expr.(*FuncCall)
	if !ok || fc2.Name != "SUM" || len(fc2.Args) != 1 {
		t.Errorf("sum: %+v", sel.Items[2].Expr)
	}
}

func TestParseNumbers(t *testing.T) {
	sel := parseSel(t, `SELECT a FROM t WHERE x = 3.25 AND y = -2 AND z = 10`)
	w := sel.Where.String()
	for _, want := range []string{"3.25", "-(2)", "10"} {
		if !strings.Contains(w, want) {
			t.Errorf("where %q missing %q", w, want)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse(`CREATE TABLE States (Name VARCHAR(64), Population INT, Capital VARCHAR)`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("wrong type %T", st)
	}
	if ct.Name != "States" || len(ct.Columns) != 3 {
		t.Errorf("%+v", ct)
	}
	if ct.Columns[0].Type != "VARCHAR" {
		t.Errorf("length spec should be tolerated: %+v", ct.Columns[0])
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse(`INSERT INTO States VALUES ('Utah', 2100000, 'Salt Lake City'), ('Iowa', -5, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("%+v", ins)
	}
	if ins.Rows[0][0].S != "Utah" || ins.Rows[0][1].I() != 2100000 {
		t.Errorf("row0: %v", ins.Rows[0])
	}
	if ins.Rows[1][1].I() != -5 {
		t.Errorf("negative literal: %v", ins.Rows[1][1])
	}
	if ins.Rows[1][2].Kind != types.KindNull {
		t.Errorf("null literal: %v", ins.Rows[1][2])
	}
}

func TestParseDrop(t *testing.T) {
	st, err := Parse(`DROP TABLE States;`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DropTable).Name != "States" {
		t.Error("drop name")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT a`,                     // missing FROM
		`SELECT a FROM`,                // missing table
		`SELECT a FROM t WHERE`,        // missing predicate
		`SELECT a FROM t ORDER Count`,  // missing BY
		`SELECT a FROM t LIMIT -1`,     // negative limit
		`SELECT a FROM t extra junk()`, // trailing garbage
		`INSERT INTO t VALUES ('a'`,    // unclosed
		`CREATE TABLE t ()`,            // no columns
		`UPDATE t SET a = 1`,           // unsupported statement
		`INSERT INTO t VALUES (-'x')`,  // negated string
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should error", src)
		}
	}
}

func TestParseSelectRejectsNonSelect(t *testing.T) {
	if _, err := ParseSelect(`DROP TABLE t`); err == nil {
		t.Error("ParseSelect should reject non-SELECT")
	}
}

func TestParseBareAlias(t *testing.T) {
	sel := parseSel(t, `SELECT Count C FROM t`)
	if sel.Items[0].Alias != "C" {
		t.Errorf("bare alias: %+v", sel.Items[0])
	}
	// Keywords must not be eaten as aliases.
	sel = parseSel(t, `SELECT Count FROM t WHERE Count > 1`)
	if sel.Items[0].Alias != "" {
		t.Errorf("FROM eaten as alias: %+v", sel.Items[0])
	}
}

func TestParseSemicolonAndWhitespace(t *testing.T) {
	if _, err := Parse("  SELECT a FROM t ;  "); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
	if _, err := Parse("SELECT a FROM t ; SELECT b FROM u"); err == nil {
		t.Error("multiple statements should error")
	}
}

func TestParseOrderByMultipleKeys(t *testing.T) {
	sel := parseSel(t, `SELECT Name, URL, Rank FROM t ORDER BY Name ASC, Rank DESC`)
	if len(sel.OrderBy) != 2 || sel.OrderBy[0].Desc || !sel.OrderBy[1].Desc {
		t.Errorf("order keys: %+v", sel.OrderBy)
	}
}
