package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// HashJoin / HashSemiJoin correctness against the nested-loop reference.

// randTable builds n rows of (key, payload) with keys drawn from a small
// domain (forcing duplicates) and a configurable fraction of NULL keys.
func randTable(rng *rand.Rand, n, keyDomain int, nullFrac float64) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		var k types.Value
		if rng.Float64() < nullFrac {
			k = types.Null()
		} else {
			k = types.Int(int64(rng.Intn(keyDomain)))
		}
		rows[i] = types.Tuple{k, types.Int(int64(i))}
	}
	return rows
}

// mixedKeys is a key domain on which kind-exact and numeric equality
// disagree: zeros of both signs and kinds, equal int/float pairs, a
// float with no int twin, and strings that spell numbers.
var mixedKeys = []types.Value{
	types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)),
	types.Int(1), types.Float(1), types.Int(-3), types.Float(-3), types.Float(2.5),
	types.Str("0"), types.Str("1"), types.Str("a"), types.Str(""),
}

// randMixedTable is randTable over the mixedKeys domain.
func randMixedTable(rng *rand.Rand, n int, nullFrac float64) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		k := types.Null()
		if rng.Float64() >= nullFrac {
			k = mixedKeys[rng.Intn(len(mixedKeys))]
		}
		rows[i] = types.Tuple{k, types.Int(int64(i))}
	}
	return rows
}

// TestHashJoinMatchesNestedLoopRandomized: for seeded random inputs with
// duplicate and NULL keys, HashJoin must produce exactly the rows of the
// equivalent nested-loop join — same multiplicity AND same order (probe in
// left stream order, matches in right scan order), so plans stay
// byte-identical when the planner swaps join algorithms. The mixed-key
// runs cover numeric equality across kinds, including -0 = 0.
func TestHashJoinMatchesNestedLoopRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			checkHashJoinMatchesNestedLoop(t,
				randTable(rng, 40+rng.Intn(40), 12, 0.1), randTable(rng, 40+rng.Intn(40), 12, 0.1))
		})
		t.Run(fmt.Sprintf("mixed-seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			checkHashJoinMatchesNestedLoop(t,
				randMixedTable(rng, 40+rng.Intn(40), 0.1), randMixedTable(rng, 40+rng.Intn(40), 0.1))
		})
	}
}

func checkHashJoinMatchesNestedLoop(t *testing.T, lrows, rrows []types.Tuple) {
	t.Helper()
	lk, lp := intCol("L", "K"), intCol("L", "P")
	rk, rp := intCol("R", "K"), intCol("R", "P")
	lsc, rsc := schema.New(lk, lp), schema.New(rk, rp)

	mk := func() (Operator, Operator) {
		hash := NewHashJoin(
			NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
			[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
		nlj := NewNestedLoopJoin(
			NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
			expr.NewCmp(expr.EQ, expr.NewColRef(lk), expr.NewColRef(rk)))
		return hash, nlj
	}
	hash, nlj := mk()
	got := rowStrings(runAll(t, hash))
	want := rowStrings(runAll(t, nlj))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("hash join diverges from nested loop:\nhash: %v\nnlj:  %v", got, want)
	}

	// With a residual: equi-key plus a non-equi conjunct.
	hashR := NewHashJoin(
		NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)},
		expr.NewCmp(expr.LT, expr.NewColRef(lp), expr.NewColRef(rp)))
	nljR := NewNestedLoopJoin(
		NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
		expr.NewAnd(
			expr.NewCmp(expr.EQ, expr.NewColRef(lk), expr.NewColRef(rk)),
			expr.NewCmp(expr.LT, expr.NewColRef(lp), expr.NewColRef(rp))))
	gotR := rowStrings(runAll(t, hashR))
	wantR := rowStrings(runAll(t, nljR))
	if fmt.Sprint(gotR) != fmt.Sprint(wantR) {
		t.Fatalf("residual hash join diverges:\nhash: %v\nnlj:  %v", gotR, wantR)
	}
}

// TestHashJoinNegativeZeroMatchesZero: Compare calls -0 and 0 equal, so
// the hash operators must find the match the nested loop finds.
func TestHashJoinNegativeZeroMatchesZero(t *testing.T) {
	lk, lp := intCol("L", "K"), intCol("L", "P")
	rk, rp := intCol("R", "K"), intCol("R", "P")
	lsc, rsc := schema.New(lk, lp), schema.New(rk, rp)
	lrows := []types.Tuple{{types.Float(math.Copysign(0, -1)), types.Int(1)}}
	rrows := []types.Tuple{{types.Int(0), types.Int(2)}}
	keys := func(c schema.Column) []expr.Expr { return []expr.Expr{expr.NewColRef(c)} }
	want := "[<-0, 1, 0, 2>]"
	nlj := NewNestedLoopJoin(NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
		expr.NewCmp(expr.EQ, expr.NewColRef(lk), expr.NewColRef(rk)))
	if got := fmt.Sprint(runAll(t, nlj)); got != want {
		t.Fatalf("nested loop: %s, want %s", got, want)
	}
	hj := NewHashJoin(NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows), keys(lk), keys(rk), nil)
	if got := fmt.Sprint(runAll(t, hj)); got != want {
		t.Errorf("hash join: %s, want %s", got, want)
	}
	sj := NewHashSemiJoin(NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows), keys(lk), keys(rk))
	if got := fmt.Sprint(runAll(t, sj)); got != "[<-0, 1>]" {
		t.Errorf("hash semi join: %s, want [<-0, 1>]", got)
	}
}

// TestHashJoinNullKeysNeverMatch: SQL equality over NULL is NULL, so NULL
// keys join with nothing — not even other NULLs — on either side.
func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := []types.Tuple{{types.Null()}, {types.Int(1)}, {types.Null()}}
	rrows := []types.Tuple{{types.Null()}, {types.Int(1)}, {types.Int(2)}}
	j := NewHashJoin(
		NewValuesScan(schema.New(lk), lrows), NewValuesScan(schema.New(rk), rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
	rows := runAll(t, j)
	if len(rows) != 1 {
		t.Fatalf("rows: %v, want exactly the 1=1 match", rows)
	}
	if v, _ := rows[0][0].AsInt(); v != 1 {
		t.Errorf("row: %v", rows[0])
	}
}

// TestHashJoinDuplicateKeysCrossProduct: m duplicates on the left times n
// on the right must yield m*n joined rows, like the nested loop.
func TestHashJoinDuplicateKeysCrossProduct(t *testing.T) {
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := []types.Tuple{{types.Int(7)}, {types.Int(7)}, {types.Int(7)}}
	rrows := []types.Tuple{{types.Int(7)}, {types.Int(7)}}
	j := NewHashJoin(
		NewValuesScan(schema.New(lk), lrows), NewValuesScan(schema.New(rk), rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
	if rows := runAll(t, j); len(rows) != 6 {
		t.Fatalf("duplicate-key cross product: %d rows, want 6", len(rows))
	}
}

// TestHashJoinMultiColumnKeys: composite keys match only when every
// component matches; numeric kinds compare as numbers (1 == 1.0).
func TestHashJoinMultiColumnKeys(t *testing.T) {
	la, lb := intCol("L", "A"), strCol("L", "B")
	ra, rb := intCol("R", "A"), strCol("R", "B")
	lrows := []types.Tuple{
		{types.Int(1), types.Str("x")},
		{types.Int(1), types.Str("y")},
		{types.Int(2), types.Str("x")},
	}
	rrows := []types.Tuple{
		{types.Float(1), types.Str("x")},
		{types.Int(2), types.Str("y")},
	}
	j := NewHashJoin(
		NewValuesScan(schema.New(la, lb), lrows), NewValuesScan(schema.New(ra, rb), rrows),
		[]expr.Expr{expr.NewColRef(la), expr.NewColRef(lb)},
		[]expr.Expr{expr.NewColRef(ra), expr.NewColRef(rb)}, nil)
	rows := runAll(t, j)
	if len(rows) != 1 {
		t.Fatalf("rows: %v, want only (1,x)~(1.0,x)", rows)
	}
}

// TestHashSemiJoinMatchesDistinctProbe: the semi join emits each left row
// at most once, in left order, iff a right match exists.
func TestHashSemiJoinMatchesDistinctProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := randTable(rng, 60, 10, 0.1)
	rrows := randTable(rng, 60, 10, 0.1)
	lsc := schema.New(lk, intCol("L", "P"))
	rsc := schema.New(rk, intCol("R", "P"))
	sj := NewHashSemiJoin(
		NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)})
	got := runAll(t, sj)

	// Reference: left rows whose key appears (non-NULL) on the right.
	keys := map[int64]bool{}
	for _, r := range rrows {
		if !r[0].IsNull() {
			k, _ := r[0].AsInt()
			keys[k] = true
		}
	}
	var want []types.Tuple
	for _, l := range lrows {
		if l[0].IsNull() {
			continue
		}
		if k, _ := l[0].AsInt(); keys[k] {
			want = append(want, l)
		}
	}
	if fmt.Sprint(rowStrings(got)) != fmt.Sprint(rowStrings(want)) {
		t.Fatalf("semi join:\ngot:  %v\nwant: %v", got, want)
	}

	// Mixed key kinds: the reference is the nested-loop test itself,
	// Compare == 0 against some non-NULL right key.
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("mixed-seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// A short right side leaves keys unmatched except across kinds.
			lrows := randMixedTable(rng, 40+rng.Intn(40), 0.1)
			rrows := randMixedTable(rng, 3+rng.Intn(6), 0.1)
			sj := NewHashSemiJoin(
				NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
				[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)})
			got := runAll(t, sj)
			var want []types.Tuple
			for _, l := range lrows {
				for _, r := range rrows {
					if !l[0].IsNull() && !r[0].IsNull() && l[0].Compare(r[0]) == 0 {
						want = append(want, l)
						break
					}
				}
			}
			if fmt.Sprint(rowStrings(got)) != fmt.Sprint(rowStrings(want)) {
				t.Fatalf("semi join:\ngot:  %v\nwant: %v", got, want)
			}
		})
	}
}

// TestHashJoinPlaceholderKeyErrors: like Cmp.Eval, evaluating a join key
// over a pending placeholder must error — the async rewriter keeps such
// joins above the ReqSync precisely because of this.
func TestHashJoinPlaceholderKeyErrors(t *testing.T) {
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := []types.Tuple{{types.Placeholder(1, 0)}}
	rrows := []types.Tuple{{types.Int(1)}}
	j := NewHashJoin(
		NewValuesScan(schema.New(lk), lrows), NewValuesScan(schema.New(rk), rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
	if _, err := Run(NewContext(), j); err == nil {
		t.Fatal("placeholder join key must error")
	}
}

// ---------------------------------------------------------------------------
// The batching win: equi-join via hash vs nested loop.

func equiJoinBench(b *testing.B, mk func(lsc, rsc *schema.Schema, lk, rk schema.Column) Operator) {
	const n = 2000
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lsc, rsc := schema.New(lk, strCol("L", "P")), schema.New(rk, strCol("R", "P"))
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("l%d", i))}
		rrows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("r%d", i))}
	}
	lscan, rscan := NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows)
	op := mk(lsc, rsc, lk, rk)
	op.SetChild(0, lscan)
	op.SetChild(1, rscan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Run(NewContext(), op)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != n {
			b.Fatalf("rows: %d", len(rows))
		}
	}
}

// BenchmarkEquiJoin contrasts the nested-loop and hash implementations of
// the same 2000x2000 equi-join (the planner's before/after for PR 7).
func BenchmarkEquiJoin(b *testing.B) {
	b.Run("nestedloop", func(b *testing.B) {
		equiJoinBench(b, func(lsc, rsc *schema.Schema, lk, rk schema.Column) Operator {
			return NewNestedLoopJoin(nil, nil,
				expr.NewCmp(expr.EQ, expr.NewColRef(lk), expr.NewColRef(rk)))
		})
	})
	b.Run("hash", func(b *testing.B) {
		equiJoinBench(b, func(lsc, rsc *schema.Schema, lk, rk schema.Column) Operator {
			return NewHashJoin(nil, nil,
				[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
		})
	})
}
