package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/types"
)

func testSchema() (*schema.Schema, schema.Column, schema.Column, schema.Column) {
	name := schema.Column{ID: schema.NewAttrID(), Table: "S", Name: "Name", Type: schema.TString}
	pop := schema.Column{ID: schema.NewAttrID(), Table: "S", Name: "Pop", Type: schema.TInt}
	cnt := schema.Column{ID: schema.NewAttrID(), Table: "W", Name: "Count", Type: schema.TInt}
	return schema.New(name, pop, cnt), name, pop, cnt
}

func mustEval(t *testing.T, e Expr, s *schema.Schema, row types.Tuple) types.Value {
	t.Helper()
	if err := e.Bind(s); err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	v, err := e.Eval(&Env{}, row)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestColRefEval(t *testing.T) {
	s, name, pop, _ := testSchema()
	row := types.Tuple{types.Str("Utah"), types.Int(2100000), types.Int(280)}
	if got := mustEval(t, NewColRef(name), s, row); got.S != "Utah" {
		t.Errorf("got %v", got)
	}
	if got := mustEval(t, NewColRef(pop), s, row); got.I() != 2100000 {
		t.Errorf("got %v", got)
	}
}

func TestColRefOuterBinding(t *testing.T) {
	_, name, _, _ := testSchema()
	empty := schema.New()
	ref := NewColRef(name)
	if err := ref.Bind(empty); err != nil {
		t.Fatal(err)
	}
	env := &Env{}
	if _, err := ref.Eval(env, nil); err == nil {
		t.Fatal("unbound outer reference should error")
	}
	env.PushFrame(map[schema.AttrID]types.Value{name.ID: types.Str("Ohio")})
	v, err := ref.Eval(env, nil)
	if err != nil || v.S != "Ohio" {
		t.Fatalf("outer eval: %v %v", v, err)
	}
	env.PopFrame()
	if _, err := ref.Eval(env, nil); err == nil {
		t.Fatal("popped frame should no longer resolve")
	}
}

func TestEnvFrameNesting(t *testing.T) {
	id := schema.NewAttrID()
	env := &Env{}
	env.PushFrame(map[schema.AttrID]types.Value{id: types.Int(1)})
	env.PushFrame(map[schema.AttrID]types.Value{id: types.Int(2)})
	if v, _ := env.Lookup(id); v.I() != 2 {
		t.Error("innermost frame should win")
	}
	env.PopFrame()
	if v, _ := env.Lookup(id); v.I() != 1 {
		t.Error("outer frame should be visible after pop")
	}
	env.PopFrame()
	env.PopFrame() // extra pop must be safe
	if _, ok := env.Lookup(id); ok {
		t.Error("empty env should not resolve")
	}
}

func TestComparisons(t *testing.T) {
	s, _, pop, cnt := testSchema()
	row := types.Tuple{types.Str("Utah"), types.Int(100), types.Int(200)}
	cases := []struct {
		op   CmpOp
		want bool
	}{
		{EQ, false}, {NE, true}, {LT, true}, {LE, true}, {GT, false}, {GE, false},
	}
	for _, c := range cases {
		e := NewCmp(c.op, NewColRef(pop), NewColRef(cnt))
		if got := mustEval(t, e, s, row); got.Truthy() != c.want {
			t.Errorf("%s: got %v, want %v", e, got, c.want)
		}
	}
	// String comparison.
	eq := NewCmp(EQ, NewLiteral(types.Str("a")), NewLiteral(types.Str("a")))
	if !mustEval(t, eq, s, row).Truthy() {
		t.Error("string equality")
	}
	// NULL propagation: comparisons with NULL are not truthy.
	null := NewCmp(EQ, NewLiteral(types.Null()), NewLiteral(types.Int(1)))
	if v := mustEval(t, null, s, row); !v.IsNull() {
		t.Errorf("NULL comparison should yield NULL, got %v", v)
	}
}

func TestComparisonOverPlaceholderErrors(t *testing.T) {
	s, _, pop, _ := testSchema()
	row := types.Tuple{types.Str("x"), types.Placeholder(9, 0), types.Int(1)}
	e := NewCmp(GT, NewColRef(pop), NewLiteral(types.Int(0)))
	if err := e.Bind(s); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(&Env{}, row); err == nil {
		t.Fatal("comparing a placeholder must error (plan rewrite invariant)")
	}
}

func TestIsNull(t *testing.T) {
	s, name, pop, _ := testSchema()
	row := types.Tuple{types.Null(), types.Int(5), types.Int(1)}
	if v := mustEval(t, NewIsNull(NewColRef(name), false), s, row); !v.Truthy() {
		t.Error("NULL IS NULL should hold")
	}
	if v := mustEval(t, NewIsNull(NewColRef(name), true), s, row); v.Truthy() {
		t.Error("NULL IS NOT NULL should not hold")
	}
	if v := mustEval(t, NewIsNull(NewColRef(pop), false), s, row); v.Truthy() {
		t.Error("5 IS NULL should not hold")
	}
	if v := mustEval(t, NewIsNull(NewColRef(pop), true), s, row); !v.Truthy() {
		t.Error("5 IS NOT NULL should hold")
	}
}

func TestIsNullOverPlaceholderErrors(t *testing.T) {
	s, _, pop, _ := testSchema()
	row := types.Tuple{types.Str("x"), types.Placeholder(9, 0), types.Int(1)}
	e := NewIsNull(NewColRef(pop), false)
	if err := e.Bind(s); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(&Env{}, row); err == nil {
		t.Fatal("IS NULL over a placeholder must error (plan rewrite invariant)")
	}
}

func TestLogicShortCircuit(t *testing.T) {
	s, _, _, _ := testSchema()
	tr := NewLiteral(types.Bool(true))
	fa := NewLiteral(types.Bool(false))
	// A poisoned expr errors if evaluated; short-circuit must avoid it.
	poison := NewCmp(EQ, NewColRef(schema.Column{ID: schema.NewAttrID(), Name: "missing"}), NewLiteral(types.Int(1)))
	and := NewAnd(fa, poison)
	if got := mustEval(t, and, s, nil); got.Truthy() {
		t.Error("false AND x should be false without evaluating x")
	}
	or := NewOr(tr, poison)
	if got := mustEval(t, or, s, nil); !got.Truthy() {
		t.Error("true OR x should be true without evaluating x")
	}
	not := NewNot(fa)
	if got := mustEval(t, not, s, nil); !got.Truthy() {
		t.Error("NOT false")
	}
}

func TestNewAndFlattening(t *testing.T) {
	a := NewLiteral(types.Bool(true))
	b := NewLiteral(types.Bool(true))
	c := NewLiteral(types.Bool(false))
	if NewAnd() != nil {
		t.Error("empty AND should be nil")
	}
	if NewAnd(a) != a {
		t.Error("single AND should pass through")
	}
	nested := NewAnd(NewAnd(a, b), c)
	l, ok := nested.(*Logic)
	if !ok || len(l.Args) != 3 {
		t.Errorf("nested conjunctions should flatten: %v", nested)
	}
	if NewAnd(nil, a, nil) != a {
		t.Error("nil args should be dropped")
	}
}

func TestArithmetic(t *testing.T) {
	s, _, _, _ := testSchema()
	cases := []struct {
		op   ArithOp
		l, r types.Value
		want types.Value
	}{
		{Add, types.Int(2), types.Int(3), types.Int(5)},
		{Sub, types.Int(2), types.Int(3), types.Int(-1)},
		{Mul, types.Int(4), types.Int(3), types.Int(12)},
		{Div, types.Int(7), types.Int(2), types.Float(3.5)}, // int division is float (Query 2)
		{Add, types.Float(1.5), types.Int(1), types.Float(2.5)},
		{Div, types.Int(1), types.Int(0), types.Null()}, // divide by zero -> NULL
	}
	for _, c := range cases {
		e := NewArith(c.op, NewLiteral(c.l), NewLiteral(c.r))
		got := mustEval(t, e, s, nil)
		if !got.Equal(c.want) || got.Kind != c.want.Kind {
			t.Errorf("%v %v %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
	// NULL propagation.
	e := NewArith(Add, NewLiteral(types.Null()), NewLiteral(types.Int(1)))
	if got := mustEval(t, e, s, nil); !got.IsNull() {
		t.Errorf("NULL + 1 should be NULL, got %v", got)
	}
}

func TestCollectAttrsAndReferences(t *testing.T) {
	s, name, pop, cnt := testSchema()
	_ = s
	e := NewAnd(
		NewCmp(EQ, NewColRef(name), NewLiteral(types.Str("x"))),
		NewCmp(GT, NewArith(Div, NewColRef(cnt), NewColRef(pop)), NewLiteral(types.Int(0))),
	)
	attrs := Attrs(e)
	if len(attrs) != 3 || !attrs[name.ID] || !attrs[pop.ID] || !attrs[cnt.ID] {
		t.Errorf("attrs = %v", attrs)
	}
	if !References(e, map[schema.AttrID]bool{cnt.ID: true}) {
		t.Error("References should find cnt")
	}
	if References(e, map[schema.AttrID]bool{schema.NewAttrID(): true}) {
		t.Error("References should not find unrelated attr")
	}
	if References(nil, attrs) {
		t.Error("nil expr references nothing")
	}
}

func TestSplitConjuncts(t *testing.T) {
	a := NewLiteral(types.Bool(true))
	b := NewLiteral(types.Bool(false))
	c := NewLiteral(types.Int(1))
	e := NewAnd(a, NewAnd(b, c))
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Errorf("split = %d parts, want 3", len(parts))
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Error("nil split")
	}
	// OR is not split.
	or := NewOr(a, b)
	if parts := SplitConjuncts(or); len(parts) != 1 {
		t.Error("OR must not be split")
	}
}

func TestExprString(t *testing.T) {
	_, name, pop, _ := testSchema()
	e := NewAnd(
		NewCmp(EQ, NewColRef(name), NewLiteral(types.Str("it's"))),
		NewCmp(LE, NewColRef(pop), NewLiteral(types.Int(5))),
	)
	s := e.String()
	for _, want := range []string{"S.Name = 'it''s'", "S.Pop <= 5", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestArithPropertyAddCommutes(t *testing.T) {
	s := schema.New()
	f := func(a, b int32) bool {
		l := NewArith(Add, NewLiteral(types.Int(int64(a))), NewLiteral(types.Int(int64(b))))
		r := NewArith(Add, NewLiteral(types.Int(int64(b))), NewLiteral(types.Int(int64(a))))
		l.Bind(s)
		r.Bind(s)
		lv, err1 := l.Eval(&Env{}, nil)
		rv, err2 := r.Eval(&Env{}, nil)
		return err1 == nil && err2 == nil && lv.Equal(rv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpOpStrings(t *testing.T) {
	want := map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%v", op)
		}
	}
}
