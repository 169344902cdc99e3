package types

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	cases := []Tuple{
		{},
		{Int(0)},
		{Int(-1), Int(1 << 40)},
		{Float(3.14159), Float(-0.0)},
		{Str(""), Str("hello world"), Str("with'quote")},
		{Null(), Int(7), Null()},
		{Str("unicode: héllo wörld ☃")},
	}
	for _, orig := range cases {
		raw, err := EncodeTuple(orig)
		if err != nil {
			t.Fatalf("encode %v: %v", orig, err)
		}
		got, err := DecodeTuple(raw)
		if err != nil {
			t.Fatalf("decode %v: %v", orig, err)
		}
		if len(got) != len(orig) {
			t.Fatalf("round trip arity: got %d, want %d", len(got), len(orig))
		}
		for i := range orig {
			if !got[i].Equal(orig[i]) || got[i].Kind != orig[i].Kind {
				t.Errorf("round trip %v: got %v at %d", orig, got[i], i)
			}
		}
	}
}

func TestCodecRejectsPlaceholders(t *testing.T) {
	if _, err := EncodeTuple(Tuple{Placeholder(1, 0)}); err == nil {
		t.Fatal("placeholders must not be persistable")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	valid, _ := EncodeTuple(Tuple{Int(5), Str("abcdef"), Float(1.5)})
	// Every strict prefix must fail cleanly, not panic.
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeTuple(valid[:i]); err == nil && i > 0 {
			// Some prefixes may decode as fewer values only if arity were
			// smaller — the arity is fixed up front, so all must fail.
			t.Errorf("truncated decode at %d bytes should fail", i)
		}
	}
	if _, err := DecodeTuple([]byte{1, 99}); err == nil {
		t.Error("unknown kind byte should fail")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(ints []int64, strs []string, floats []float64) bool {
		var tup Tuple
		for _, v := range ints {
			tup = append(tup, Int(v))
		}
		for _, s := range strs {
			tup = append(tup, Str(s))
		}
		for _, fv := range floats {
			tup = append(tup, Float(fv))
		}
		raw, err := EncodeTuple(tup)
		if err != nil {
			return false
		}
		got, err := DecodeTuple(raw)
		if err != nil || len(got) != len(tup) {
			return false
		}
		for i := range tup {
			if got[i].Kind != tup[i].Kind {
				return false
			}
			switch tup[i].Kind {
			case KindInt:
				if got[i].I() != tup[i].I() {
					return false
				}
			case KindString:
				if got[i].S != tup[i].S {
					return false
				}
			case KindFloat:
				// NaN round-trips bit-exactly but NaN != NaN; compare bits
				// via string formatting of the struct field.
				if got[i].F() != tup[i].F() && !(tup[i].F() != tup[i].F() && got[i].F() != got[i].F()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestValueJSONWireFormat pins the bytes cache peers exchange: the
// field set and order of the struct Value used to be, so nodes running
// either layout interoperate.
func TestValueJSONWireFormat(t *testing.T) {
	got, err := json.Marshal([]Value{Null(), Int(-7), Float(2.5), Str("x"), Placeholder(9, 2)})
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"Kind":0,"I":0,"F":0,"S":"","Call":0,"Field":0},` +
		`{"Kind":1,"I":-7,"F":0,"S":"","Call":0,"Field":0},` +
		`{"Kind":2,"I":0,"F":2.5,"S":"","Call":0,"Field":0},` +
		`{"Kind":3,"I":0,"F":0,"S":"x","Call":0,"Field":0},` +
		`{"Kind":4,"I":0,"F":0,"S":"","Call":9,"Field":2}]`
	if string(got) != want {
		t.Fatalf("wire format changed:\n got %s\nwant %s", got, want)
	}
}

func TestValueJSONRoundTrip(t *testing.T) {
	in := []Tuple{
		{Null(), Int(0), Int(math.MinInt64), Int(math.MaxInt64)},
		{Float(0), Float(math.Copysign(0, -1)), Float(-1e-300), Float(math.MaxFloat64)},
		{Str(""), Str("<a & b>"), Str("\x1f\"\\é")},
		{Placeholder(0, 0), Placeholder(1<<40, 7)},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Tuple
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d tuples, want %d", len(out), len(in))
	}
	for i := range in {
		for j, v := range in[i] {
			w := out[i][j]
			// Equal compares -0 and 0 alike; the bits must survive too.
			if w.Kind != v.Kind || !w.Equal(v) || math.Signbit(w.F()) != math.Signbit(v.F()) {
				t.Errorf("value %d.%d: %v (%s) round-tripped to %v (%s)", i, j, v, v.Kind, w, w.Kind)
			}
		}
	}
	var bad Value
	if err := json.Unmarshal([]byte(`{"Kind":9}`), &bad); err == nil {
		t.Error("unknown kind must not decode")
	}
}
