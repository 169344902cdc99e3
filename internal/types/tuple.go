package types

import (
	"hash/maphash"
	"strings"
)

// Tuple is a row of values. Tuples flow between iterator operators; during
// asynchronous iteration some of their values may be placeholders.
type Tuple []Value

// Clone returns a deep copy of the tuple. Values are immutable scalars, so
// copying the slice suffices.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns a new tuple consisting of t followed by o.
func (t Tuple) Concat(o Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(o))
	c = append(c, t...)
	c = append(c, o...)
	return c
}

// HasPlaceholder reports whether any value in the tuple is a placeholder
// for a pending external call.
func (t Tuple) HasPlaceholder() bool {
	for _, v := range t {
		if v.IsPlaceholder() {
			return true
		}
	}
	return false
}

// PendingCalls returns the distinct CallIDs referenced by placeholder
// values in the tuple, in first-appearance order.
func (t Tuple) PendingCalls() []CallID {
	var ids []CallID
	for _, v := range t {
		if !v.IsPlaceholder() {
			continue
		}
		seen := false
		for _, id := range ids {
			if id == v.Call() {
				seen = true
				break
			}
		}
		if !seen {
			ids = append(ids, v.Call())
		}
	}
	return ids
}

// Equal reports whether two tuples are value-wise equal.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the tuple. It defines grouping
// identity for DISTINCT and GROUP BY: two tuples fall in one group
// exactly when their keys are equal, and Aggregate orders its groups by
// key. The key is kind-exact — Int(1) and Float(1) differ, as do
// Float(-0) and Float(0) — while every NaN keys alike. The operators do
// not build it per row; they hash with KeyHash and compare with
// KeyEqual, which agree with Key equality for tuples of one arity.
// Placeholders never reach these operators in a correct plan (they clash
// during percolation), but they still key deterministically.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(keySep)
		}
		b.WriteByte(byte('0' + v.Kind))
		b.WriteByte(':')
		b.WriteString(v.AsString())
	}
	return b.String()
}

// keySep separates the values in a Key.
const keySep = '\x1f'

// keyAmbiguous reports whether a string value contains the key
// separator, so that t's Key no longer splits back into its values.
// Such tuples hash and compare by the Key itself.
func (t Tuple) keyAmbiguous() bool {
	for _, v := range t {
		if v.Kind == KindString && strings.IndexByte(v.S, keySep) >= 0 {
			return true
		}
	}
	return false
}

// KeyHash hashes t consistently with KeyEqual: tuples of one arity with
// equal keys hash alike under the same seed. It does not allocate unless
// a string value contains the key separator.
func (t Tuple) KeyHash(seed maphash.Seed) uint64 {
	if t.keyAmbiguous() {
		return maphash.String(seed, t.Key())
	}
	h := uint64(len(t))
	for _, v := range t {
		u := v.bits ^ uint64(v.field)<<48
		switch {
		case v.Kind == KindString:
			u = maphash.String(seed, v.S)
		case v.isNaN():
			u = canonicalNaN
		}
		h = (h ^ uint64(v.Kind) ^ u) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// canonicalNaN is the payload every NaN hashes with, since all NaNs key
// alike.
const canonicalNaN = 0x7ff8000000000001

// KeyEqual reports whether t.Key() == o.Key() for tuples of one arity,
// without building either key: per value, the kinds match and so do the
// payloads, where every NaN equals every other NaN and -0 differs from 0.
func (t Tuple) KeyEqual(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	if t.keyAmbiguous() || o.keyAmbiguous() {
		return t.Key() == o.Key()
	}
	for i, v := range t {
		w := o[i]
		if v.Kind != w.Kind || v.S != w.S || v.field != w.field ||
			v.bits != w.bits && !(v.isNaN() && w.isNaN()) {
			return false
		}
	}
	return true
}

// String renders the tuple for diagnostics: "<v1, v2, ...>".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte('>')
	return b.String()
}
