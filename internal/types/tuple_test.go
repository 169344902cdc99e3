package types

import (
	"hash/maphash"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTupleClone(t *testing.T) {
	orig := Tuple{Int(1), Str("a"), Placeholder(2, 0)}
	c := orig.Clone()
	if !c.Equal(orig) {
		t.Fatal("clone should equal original")
	}
	c[0] = Int(99)
	if orig[0].I() != 1 {
		t.Error("mutating clone affected original")
	}
	if Tuple(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestTupleConcat(t *testing.T) {
	a := Tuple{Int(1)}
	b := Tuple{Str("x"), Int(2)}
	c := a.Concat(b)
	if len(c) != 3 || c[0].I() != 1 || c[1].S != "x" || c[2].I() != 2 {
		t.Errorf("concat wrong: %v", c)
	}
	// Concat must not alias its inputs.
	c[0] = Int(9)
	if a[0].I() != 1 {
		t.Error("concat aliases input")
	}
}

func TestHasPlaceholderAndPendingCalls(t *testing.T) {
	plain := Tuple{Int(1), Str("a"), Null()}
	if plain.HasPlaceholder() {
		t.Error("plain tuple has no placeholders")
	}
	if got := plain.PendingCalls(); len(got) != 0 {
		t.Errorf("plain tuple pending calls: %v", got)
	}
	mixed := Tuple{Int(1), Placeholder(5, 0), Placeholder(5, 1), Placeholder(3, 0)}
	if !mixed.HasPlaceholder() {
		t.Error("mixed tuple has placeholders")
	}
	ids := mixed.PendingCalls()
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 3 {
		t.Errorf("pending calls = %v, want [5 3] (dedup, first-appearance order)", ids)
	}
}

func TestTupleEqual(t *testing.T) {
	a := Tuple{Int(1), Str("x")}
	b := Tuple{Int(1), Str("x")}
	c := Tuple{Int(1)}
	d := Tuple{Int(1), Str("y")}
	if !a.Equal(b) {
		t.Error("equal tuples")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("unequal tuples compared equal")
	}
}

func TestTupleKeyDistinguishes(t *testing.T) {
	// Key must distinguish values that stringify identically but differ in
	// kind, and must not merge adjacent cells.
	pairs := [][2]Tuple{
		{{Int(1)}, {Str("1")}},
		{{Str("a"), Str("b")}, {Str("ab"), Str("")}},
		{{Null()}, {Str("")}},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("tuples %v and %v share key %q", p[0], p[1], p[0].Key())
		}
	}
	if (Tuple{Int(1), Str("x")}).Key() != (Tuple{Int(1), Str("x")}).Key() {
		t.Error("equal tuples must share keys")
	}
}

func TestTupleString(t *testing.T) {
	got := Tuple{Int(1), Str("ab"), Null()}.String()
	if got != "<1, ab, NULL>" {
		t.Errorf("tuple rendering: %q", got)
	}
}

func TestTupleKeyPropertyEqualImpliesSameKey(t *testing.T) {
	f := func(xs []int64, ss []string) bool {
		var a, b Tuple
		for _, x := range xs {
			a = append(a, Int(x))
			b = append(b, Int(x))
		}
		for _, s := range ss {
			a = append(a, Str(s))
			b = append(b, Str(s))
		}
		return a.Key() == b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// groupingValues is a seeded mix on which kind-exact and numeric
// equality disagree: zeros of both signs, int/float twins, several NaN
// payloads, strings that spell numbers or contain the key separator, and
// placeholders.
func groupingValues(rng *rand.Rand) []Value {
	vals := []Value{
		Null(), Int(0), Int(1), Int(-1), Float(0), Float(math.Copysign(0, -1)),
		Float(1), Float(-1), Float(2.5), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000abc)),
		Float(math.Float64frombits(0xfff0000000000001)),
		Str(""), Str("0"), Str("1"), Str("a"), Str("a\x1f3:b"), Str("\x1f"),
		Placeholder(1, 0), Placeholder(1, 1), Placeholder(2, 0),
	}
	for i := 0; i < 8; i++ {
		vals = append(vals, Int(rng.Int63n(5)), Float(float64(rng.Intn(5))))
	}
	return vals
}

// TestTupleKeyHashAgreesWithKey pins the grouping contract DISTINCT and
// GROUP BY rely on: for tuples of one arity, KeyEqual holds exactly when
// the keys are equal, and equal keys hash alike.
func TestTupleKeyHashAgreesWithKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := groupingValues(rng)
	seed := maphash.MakeSeed()
	for arity := 1; arity <= 3; arity++ {
		tuples := make([]Tuple, 300)
		for i := range tuples {
			tuples[i] = make(Tuple, arity)
			for j := range tuples[i] {
				tuples[i][j] = vals[rng.Intn(len(vals))]
			}
		}
		// Separator-bearing strings can make different tuples share a key.
		if arity == 2 {
			tuples = append(tuples, Tuple{Str("a"), Str("b")}, Tuple{Str("a\x1f3:b"), Str("")}, Tuple{Str("a"), Str("b\x1f3:")})
		}
		for _, a := range tuples {
			for _, b := range tuples {
				keyEq := a.Key() == b.Key()
				if got := a.KeyEqual(b); got != keyEq {
					t.Fatalf("KeyEqual(%v, %v) = %v, Key equality %v", a, b, got, keyEq)
				}
				if keyEq && a.KeyHash(seed) != b.KeyHash(seed) {
					t.Fatalf("Key-equal %v and %v hash apart", a, b)
				}
			}
		}
	}
	nan := Float(math.NaN())
	for _, c := range []struct {
		a, b Value
		same bool
	}{
		{Int(1), Float(1), false},
		{Float(0), Float(math.Copysign(0, -1)), false},
		{nan, Float(math.Float64frombits(0x7ff8000000000abc)), true},
		{Int(0), Int(0), true},
	} {
		if got := (Tuple{c.a}).KeyEqual(Tuple{c.b}); got != c.same {
			t.Errorf("KeyEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.same)
		}
	}
}
