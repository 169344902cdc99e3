// Package types defines the value and tuple representations shared by every
// layer of the WSQ/DSQ engine: the storage manager, the expression
// evaluator, the iterator-based executor, and the asynchronous-iteration
// machinery.
//
// The one WSQ-specific extension over a textbook value system is the
// placeholder kind (KindPlaceholder). During asynchronous iteration an
// AEVScan returns tuples immediately, before the corresponding web-search
// call has completed; the attribute values that the call will eventually
// supply are marked with a placeholder identifying the pending call and the
// field of the call's result rows that will replace the placeholder. Only
// the ReqSync operator ever interprets placeholders — every other operator
// treats them as opaque values, which is precisely what lets asynchronous
// iteration slot into an unmodified iterator engine.
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime kinds a Value can take.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindPlaceholder
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindPlaceholder:
		return "placeholder"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// CallID identifies a pending external call registered with the request
// pump. CallIDs are allocated by the pump and are unique within a process.
type CallID uint64

// Value is a dynamically typed scalar. The zero Value is NULL.
//
// A Value of KindPlaceholder stands for "the Field()-th column of the
// result rows of pending call Call()". See the package comment.
//
// The layout is 32 bytes: the string header first, then one 8-byte
// payload shared by the int, float and call-id kinds, then the
// placeholder's field index and the kind tag in what would otherwise be
// padding. Putting the string first makes word 0 the struct's only
// pointer, so the garbage collector scans one word per value and stops
// (the trailing scalar words are outside the type's pointer prefix).
// The payload is read through the kind-checked accessors I, F, Call and
// Field, which return zero for a value of another kind.
type Value struct {
	// S is the payload of a KindString value ("" for every other kind).
	S string
	// bits holds an int64 (KindInt), the IEEE-754 bits of a float64
	// (KindFloat) or a CallID (KindPlaceholder).
	bits uint64
	// field is the placeholder's result-row column.
	field int32
	Kind  Kind
}

// Null returns the NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, bits: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, bits: math.Float64bits(f)} }

// String_ returns a string value. (Named with a trailing underscore because
// String is taken by the Stringer method.)
func String_(s string) Value { return Value{Kind: KindString, S: s} }

// Str is a shorter alias for String_.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Placeholder returns a placeholder value for field f of pending call c.
func Placeholder(c CallID, f int) Value {
	return Value{Kind: KindPlaceholder, bits: uint64(c), field: int32(f)}
}

// I returns the payload of a KindInt value, or 0 for any other kind.
func (v Value) I() int64 {
	if v.Kind != KindInt {
		return 0
	}
	return int64(v.bits)
}

// F returns the payload of a KindFloat value, or 0 for any other kind.
func (v Value) F() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.bits)
}

// Call returns the pending call of a placeholder, or 0 for any other kind.
func (v Value) Call() CallID {
	if v.Kind != KindPlaceholder {
		return 0
	}
	return CallID(v.bits)
}

// Field returns the result-row column of a placeholder, or 0 for any
// other kind.
func (v Value) Field() int {
	if v.Kind != KindPlaceholder {
		return 0
	}
	return int(v.field)
}

// Bool encodes a boolean as an integer value (1 or 0), matching the engine's
// SQL subset which has no separate boolean column type.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsPlaceholder reports whether v is a placeholder for a pending call.
func (v Value) IsPlaceholder() bool { return v.Kind == KindPlaceholder }

// Truthy reports whether v is considered true in a WHERE context.
// NULL and placeholders are not truthy.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindInt:
		return v.I() != 0
	case KindFloat:
		return v.F() != 0
	case KindString:
		return v.S != ""
	default:
		return false
	}
}

// AsInt coerces v to an int64. Strings parse if numeric; NULL is 0.
func (v Value) AsInt() (int64, error) {
	switch v.Kind {
	case KindInt:
		return v.I(), nil
	case KindFloat:
		return int64(v.F()), nil
	case KindString:
		n, err := strconv.ParseInt(v.S, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("cannot coerce string %q to int", v.S)
		}
		return n, nil
	case KindNull:
		return 0, nil
	default:
		return 0, fmt.Errorf("cannot coerce %s to int", v.Kind)
	}
}

// AsFloat coerces v to a float64.
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case KindInt:
		return float64(v.I()), nil
	case KindFloat:
		return v.F(), nil
	case KindString:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return 0, fmt.Errorf("cannot coerce string %q to float", v.S)
		}
		return f, nil
	case KindNull:
		return 0, nil
	default:
		return 0, fmt.Errorf("cannot coerce %s to float", v.Kind)
	}
}

// AsString coerces v to a string.
func (v Value) AsString() string {
	switch v.Kind {
	case KindString:
		return v.S
	case KindInt:
		return strconv.FormatInt(v.I(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindNull:
		return ""
	case KindPlaceholder:
		return fmt.Sprintf("?call:%d.%d", v.Call(), v.Field())
	default:
		return ""
	}
}

// String implements fmt.Stringer for diagnostics and result printing.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindPlaceholder:
		return fmt.Sprintf("<pending %d#%d>", v.Call(), v.Field())
	default:
		return v.AsString()
	}
}

// Equal reports strict equality of two values (same kind and payload),
// used by tests and by duplicate elimination.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		// Allow int/float cross-kind numeric equality.
		if isNumeric(v.Kind) && isNumeric(o.Kind) {
			a, _ := v.AsFloat()
			b, _ := o.AsFloat()
			return a == b
		}
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt:
		return v.I() == o.I()
	case KindFloat:
		return v.F() == o.F()
	case KindString:
		return v.S == o.S
	case KindPlaceholder:
		return v.bits == o.bits && v.field == o.field
	}
	return false
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// isNaN reports whether v is a float NaN.
func (v Value) isNaN() bool { return v.Kind == KindFloat && math.IsNaN(v.F()) }

// Compare returns -1, 0, or +1 ordering v relative to o.
// NULL sorts before everything; placeholders sort after everything (they
// should never reach a comparison in a correct plan, but a stable order
// keeps sorting deterministic if they do). Numeric kinds compare
// numerically across int/float; otherwise mismatched kinds compare by kind.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.Kind == KindPlaceholder || o.Kind == KindPlaceholder {
		switch {
		case v.Kind == o.Kind:
			switch {
			case v.bits != o.bits:
				if v.bits < o.bits {
					return -1
				}
				return 1
			case v.field != o.field:
				if v.field < o.field {
					return -1
				}
				return 1
			default:
				return 0
			}
		case v.Kind == KindPlaceholder:
			return 1
		default:
			return -1
		}
	}
	if isNumeric(v.Kind) && isNumeric(o.Kind) {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind == KindString && o.Kind == KindString {
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	}
	// Mismatched non-numeric kinds: order by kind tag for determinism.
	if v.Kind < o.Kind {
		return -1
	}
	if v.Kind > o.Kind {
		return 1
	}
	return 0
}
