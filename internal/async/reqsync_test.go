package async

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// scriptedSource is an ExternalSource with per-argument scripted results
// and an optional per-call delay.
type scriptedSource struct {
	name    string
	dest    string
	numEcho int
	delay   time.Duration
	rows    func(arg string) ([]types.Tuple, error)
	mu      sync.Mutex
	calls   int
}

func (s *scriptedSource) Name() string        { return s.name }
func (s *scriptedSource) Destination() string { return s.dest }
func (s *scriptedSource) NumEcho() int        { return s.numEcho }
func (s *scriptedSource) CacheKey(args []types.Value) string {
	return s.name + "|" + args[0].AsString()
}
func (s *scriptedSource) Call(args []types.Value) ([]types.Tuple, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.rows(args[0].AsString())
}

func strCol(table, name string) schema.Column {
	return schema.Column{ID: schema.NewAttrID(), Table: table, Name: name, Type: schema.TString}
}

func intCol(table, name string) schema.Column {
	return schema.Column{ID: schema.NewAttrID(), Table: table, Name: name, Type: schema.TInt}
}

// buildCountPlan constructs DependentJoin(Values(terms), AEVScan(src)) with
// a ReqSync on top — the hand-built Figure 3 plan.
func buildCountPlan(terms []string, src *scriptedSource, pump *Pump) (*ReqSync, *schema.Schema) {
	termCol := strCol("L", "Term")
	left := exec.NewValuesScan(schema.New(termCol), tuplesOf(terms))
	out := schema.New(strCol("V", "Term"), intCol("V", "Count"))
	aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)}, out, pump)
	dj := exec.NewDependentJoin(left, aev, "")
	return NewReqSync(dj, pump, aev.FilledAttrs()), dj.Schema()
}

func tuplesOf(ss []string) []types.Tuple {
	out := make([]types.Tuple, len(ss))
	for i, s := range ss {
		out[i] = types.Tuple{types.Str(s)}
	}
	return out
}

func runOp(t *testing.T, op exec.Operator) []types.Tuple {
	t.Helper()
	rows, err := exec.Run(exec.NewContext(), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// ---------------------------------------------------------------------------
// AEVScan

func TestAEVScanEmitsPlaceholderTuple(t *testing.T) {
	pump := NewPump(4, 4, nil)
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	out := schema.New(strCol("V", "Term"), intCol("V", "Count"))
	aev := NewAEVScan(src, []expr.Expr{expr.NewLiteral(types.Str("abc"))}, out, pump)
	ctx := exec.NewContext()
	if err := aev.Open(ctx); err != nil {
		t.Fatal(err)
	}
	tup, ok, err := aev.Next(ctx)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if tup[0].AsString() != "abc" {
		t.Errorf("echoed arg: %v", tup)
	}
	if !tup[1].IsPlaceholder() || tup[1].Field() != 0 {
		t.Errorf("output should be a placeholder: %v", tup)
	}
	// Exactly one tuple ("we always begin by assuming that exactly one
	// tuple joins").
	if _, ok, _ := aev.Next(ctx); ok {
		t.Error("AEVScan must emit exactly one tuple")
	}
	if err := aev.Close(); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.ExternalCalls != 1 {
		t.Errorf("external calls: %d", ctx.Stats.ExternalCalls)
	}
}

func TestAEVScanFilledAttrs(t *testing.T) {
	pump := NewPump(4, 4, nil)
	out := schema.New(strCol("V", "Term"), intCol("V", "Count"))
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1, rows: nil}
	aev := NewAEVScan(src, nil, out, pump)
	a := aev.FilledAttrs()
	if len(a) != 1 || !a[out.Cols[1].ID] {
		t.Errorf("FilledAttrs = %v", a)
	}
}

// ---------------------------------------------------------------------------
// ReqSync: patch (1 row), cancel (0 rows), expand (n rows)

func TestReqSyncPatchesSingleRow(t *testing.T) {
	pump := NewPump(8, 8, nil)
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1, delay: 5 * time.Millisecond,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	rs, _ := buildCountPlan([]string{"a", "bb", "ccc"}, src, pump)
	rows := runOp(t, rs)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		if r.HasPlaceholder() {
			t.Fatalf("unpatched tuple: %v", r)
		}
		if r[2].I() != int64(len(r[0].AsString())) {
			t.Errorf("patched value wrong: %v", r)
		}
	}
}

func TestReqSyncCancelsZeroRowTuples(t *testing.T) {
	pump := NewPump(8, 8, nil)
	src := &scriptedSource{name: "WP", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			if arg == "none" {
				return nil, nil // Section 4.3 case 1: delete the tuple
			}
			return []types.Tuple{{types.Int(1)}}, nil
		}}
	rs, _ := buildCountPlan([]string{"x", "none", "y"}, src, pump)
	rows := runOp(t, rs)
	if len(rows) != 2 {
		t.Fatalf("cancellation failed: %v", rows)
	}
	for _, r := range rows {
		if r[0].AsString() == "none" {
			t.Errorf("canceled tuple leaked: %v", r)
		}
	}
}

func TestReqSyncExpandsMultiRowResults(t *testing.T) {
	pump := NewPump(8, 8, nil)
	src := &scriptedSource{name: "WP", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			// Section 4.3 case 3: n result rows -> n-1 extra copies.
			var out []types.Tuple
			for i := 1; i <= len(arg); i++ {
				out = append(out, types.Tuple{types.Int(int64(i))})
			}
			return out, nil
		}}
	rs, _ := buildCountPlan([]string{"abc", "z"}, src, pump)
	rows := runOp(t, rs)
	if len(rows) != 4 { // 3 for "abc" + 1 for "z"
		t.Fatalf("expansion: got %d rows: %v", len(rows), rows)
	}
	counts := map[string][]int64{}
	for _, r := range rows {
		counts[r[0].AsString()] = append(counts[r[0].AsString()], r[2].I())
	}
	if len(counts["abc"]) != 3 || len(counts["z"]) != 1 {
		t.Errorf("per-term expansion: %v", counts)
	}
}

// TestReqSyncMultipleCallsPerTuple reproduces Section 4.4: a tuple holding
// placeholders for two different calls; the first completion expands the
// tuple and its copies must retain (and later resolve) the second call's
// placeholders.
func TestReqSyncMultipleCallsPerTuple(t *testing.T) {
	pump := NewPump(8, 8, nil)
	termCol := strCol("L", "Term")
	left := exec.NewValuesScan(schema.New(termCol), tuplesOf([]string{"sig"}))

	// First call (AV): 3 rows, slow. Second call (Google): 2 rows, fast.
	av := &scriptedSource{name: "AV", dest: "av", numEcho: 1, delay: 30 * time.Millisecond,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(101)}, {types.Int(102)}, {types.Int(103)}}, nil
		}}
	g := &scriptedSource{name: "G", dest: "g", numEcho: 1, delay: 1 * time.Millisecond,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(201)}, {types.Int(202)}}, nil
		}}
	avOut := schema.New(strCol("AV", "Term"), intCol("AV", "Val"))
	gOut := schema.New(strCol("G", "Term"), intCol("G", "Val"))
	aev1 := NewAEVScan(av, []expr.Expr{expr.NewColRef(termCol)}, avOut, pump)
	dj1 := exec.NewDependentJoin(left, aev1, "")
	aev2 := NewAEVScan(g, []expr.Expr{expr.NewColRef(termCol)}, gOut, pump)
	dj2 := exec.NewDependentJoin(dj1, aev2, "")
	a := aev1.FilledAttrs()
	for id := range aev2.FilledAttrs() {
		a[id] = true
	}
	rs := NewReqSync(dj2, pump, a)

	rows := runOp(t, rs)
	// Cartesian of 3 AV rows x 2 G rows for the single sig.
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d: %v", len(rows), rows)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.HasPlaceholder() {
			t.Fatalf("unpatched: %v", r)
		}
		key := fmt.Sprintf("%d/%d", r[2].I(), r[4].I())
		if seen[key] {
			t.Errorf("duplicate combination %s", key)
		}
		seen[key] = true
	}
	for _, avV := range []int{101, 102, 103} {
		for _, gV := range []int{201, 202} {
			if !seen[fmt.Sprintf("%d/%d", avV, gV)] {
				t.Errorf("missing combination %d/%d", avV, gV)
			}
		}
	}
}

// TestReqSyncMultiCallCancellation: one of a tuple's two calls returns zero
// rows after the other already expanded it — every copy must be canceled.
func TestReqSyncMultiCallCancellation(t *testing.T) {
	pump := NewPump(8, 8, nil)
	termCol := strCol("L", "Term")
	left := exec.NewValuesScan(schema.New(termCol), tuplesOf([]string{"sig"}))
	fast := &scriptedSource{name: "F", dest: "f", numEcho: 1,
		rows: func(string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(1)}, {types.Int(2)}}, nil
		}}
	slowEmpty := &scriptedSource{name: "S", dest: "s", numEcho: 1, delay: 30 * time.Millisecond,
		rows: func(string) ([]types.Tuple, error) { return nil, nil }}
	fOut := schema.New(strCol("F", "Term"), intCol("F", "Val"))
	sOut := schema.New(strCol("S", "Term"), intCol("S", "Val"))
	aev1 := NewAEVScan(fast, []expr.Expr{expr.NewColRef(termCol)}, fOut, pump)
	dj1 := exec.NewDependentJoin(left, aev1, "")
	aev2 := NewAEVScan(slowEmpty, []expr.Expr{expr.NewColRef(termCol)}, sOut, pump)
	dj2 := exec.NewDependentJoin(dj1, aev2, "")
	a := aev1.FilledAttrs()
	for id := range aev2.FilledAttrs() {
		a[id] = true
	}
	rs := NewReqSync(dj2, pump, a)
	rows := runOp(t, rs)
	if len(rows) != 0 {
		t.Fatalf("all tuples should cancel, got %v", rows)
	}
}

func TestReqSyncPassThroughCompleteTuples(t *testing.T) {
	// Tuples without placeholders flow through untouched.
	pump := NewPump(4, 4, nil)
	a := intCol("T", "A")
	scan := exec.NewValuesScan(schema.New(a), []types.Tuple{{types.Int(1)}, {types.Int(2)}})
	rs := NewReqSync(scan, pump, nil)
	rows := runOp(t, rs)
	if len(rows) != 2 {
		t.Errorf("pass-through rows: %v", rows)
	}
}

func TestReqSyncErrorFromCall(t *testing.T) {
	pump := NewPump(4, 4, nil)
	src := &scriptedSource{name: "E", dest: "d", numEcho: 1,
		rows: func(string) ([]types.Tuple, error) { return nil, fmt.Errorf("boom") }}
	rs, _ := buildCountPlan([]string{"a"}, src, pump)
	if _, err := exec.Run(exec.NewContext(), rs); err == nil {
		t.Fatal("call error must propagate")
	}
}

func TestReqSyncStreaming(t *testing.T) {
	pump := NewPump(8, 8, nil)
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1, delay: 2 * time.Millisecond,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	rs, _ := buildCountPlan([]string{"a", "bb", "ccc", "dddd"}, src, pump)
	rs.Streaming = true
	rows := runOp(t, rs)
	if len(rows) != 4 {
		t.Fatalf("streaming rows: %v", rows)
	}
	for _, r := range rows {
		if r.HasPlaceholder() {
			t.Fatalf("unpatched: %v", r)
		}
	}
}

func TestReqSyncConcurrencyBeatsSequential(t *testing.T) {
	// The headline claim: N high-latency calls complete in ~1 round trip.
	const n = 12
	const lat = 30 * time.Millisecond
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
	}
	mk := func() *scriptedSource {
		return &scriptedSource{name: "WC", dest: "d", numEcho: 1, delay: lat,
			rows: func(arg string) ([]types.Tuple, error) {
				return []types.Tuple{{types.Int(1)}}, nil
			}}
	}
	// Async.
	pump := NewPump(64, 64, nil)
	rs, _ := buildCountPlan(terms, mk(), pump)
	start := time.Now()
	rows := runOp(t, rs)
	asyncTime := time.Since(start)
	if len(rows) != n {
		t.Fatalf("rows: %d", len(rows))
	}
	if asyncTime > time.Duration(n)*lat/3 {
		t.Errorf("async took %v; calls apparently not overlapped (sequential would be %v)",
			asyncTime, time.Duration(n)*lat)
	}
}
