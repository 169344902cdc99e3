package types

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize guards the 32-byte layout: a wider Value moves every
// tuple into a larger size class and every column scan with it.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 32", n)
	}
}

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Str("hi"), KindString},
		{Placeholder(7, 2), KindPlaceholder},
		{Bool(true), KindInt},
		{Bool(false), KindInt},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("%v: kind %v, want %v", c.v, c.v.Kind, c.kind)
		}
	}
	if !Bool(true).Truthy() || Bool(false).Truthy() {
		t.Error("Bool truthiness wrong")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindPlaceholder: "placeholder",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Int(1), Int(-1), Float(0.5), Str("x")}
	falsy := []Value{Null(), Int(0), Float(0), Str(""), Placeholder(1, 0)}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should not be truthy", v)
		}
	}
}

func TestAsIntCoercions(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want int64
	}{
		{Int(7), 7}, {Float(3.9), 3}, {Str("12"), 12}, {Null(), 0},
	} {
		got, err := c.v.AsInt()
		if err != nil {
			t.Fatalf("AsInt(%v): %v", c.v, err)
		}
		if got != c.want {
			t.Errorf("AsInt(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if _, err := Str("abc").AsInt(); err == nil {
		t.Error("AsInt of non-numeric string should error")
	}
	if _, err := Placeholder(1, 0).AsInt(); err == nil {
		t.Error("AsInt of placeholder should error")
	}
}

func TestAsFloatCoercions(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want float64
	}{
		{Int(7), 7}, {Float(3.5), 3.5}, {Str("2.25"), 2.25}, {Null(), 0},
	} {
		got, err := c.v.AsFloat()
		if err != nil {
			t.Fatalf("AsFloat(%v): %v", c.v, err)
		}
		if got != c.want {
			t.Errorf("AsFloat(%v) = %g, want %g", c.v, got, c.want)
		}
	}
	if _, err := Str("xyz").AsFloat(); err == nil {
		t.Error("AsFloat of non-numeric string should error")
	}
}

func TestAsString(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Int(7), "7"}, {Float(2.5), "2.5"}, {Str("abc"), "abc"}, {Null(), ""},
	} {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("AsString(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	if Null().String() != "NULL" {
		t.Error("NULL rendering")
	}
	if got := Placeholder(3, 1).String(); got != "<pending 3#1>" {
		t.Errorf("placeholder rendering: %q", got)
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(2), Float(2), true}, // cross-kind numeric equality
		{Float(2.5), Float(2.5), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
		{Placeholder(1, 0), Placeholder(1, 0), true},
		{Placeholder(1, 0), Placeholder(1, 1), false},
		{Placeholder(1, 0), Placeholder(2, 0), false},
		{Str("1"), Int(1), false}, // no string/number coercion in equality
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal(%v, %v) not symmetric", c.b, c.a)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	// NULL < numbers, cross-kind numeric comparisons, strings lexicographic,
	// placeholders last.
	ordered := []Value{Null(), Int(-5), Float(-1.5), Int(0), Float(2.5), Int(3)}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if Str("apple").Compare(Str("banana")) >= 0 {
		t.Error("string comparison")
	}
	if Placeholder(1, 0).Compare(Int(5)) != 1 {
		t.Error("placeholders sort after values")
	}
	if Int(5).Compare(Placeholder(1, 0)) != -1 {
		t.Error("values sort before placeholders")
	}
	if Placeholder(1, 0).Compare(Placeholder(2, 0)) != -1 {
		t.Error("placeholder ordering by call id")
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyTransitive(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		va, vb, vc := Float(a), Float(b), Float(c)
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 {
			return va.Compare(vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
