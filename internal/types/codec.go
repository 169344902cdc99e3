package types

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// EncodeTuple serializes a tuple into a compact byte form for the slotted
// page storage layer. Placeholders are deliberately not encodable: they are
// transient execution-time artifacts of asynchronous iteration and must
// never be persisted.
func EncodeTuple(t Tuple) ([]byte, error) {
	buf := make([]byte, 0, 16*len(t)+2)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(t)))
	buf = append(buf, tmp[:n]...)
	for _, v := range t {
		switch v.Kind {
		case KindNull:
			buf = append(buf, byte(KindNull))
		case KindInt:
			buf = append(buf, byte(KindInt))
			n := binary.PutVarint(tmp[:], v.I())
			buf = append(buf, tmp[:n]...)
		case KindFloat:
			buf = append(buf, byte(KindFloat))
			var fb [8]byte
			binary.LittleEndian.PutUint64(fb[:], math.Float64bits(v.F()))
			buf = append(buf, fb[:]...)
		case KindString:
			buf = append(buf, byte(KindString))
			n := binary.PutUvarint(tmp[:], uint64(len(v.S)))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, v.S...)
		case KindPlaceholder:
			return nil, fmt.Errorf("cannot persist placeholder value (call %d)", v.Call())
		default:
			return nil, fmt.Errorf("cannot encode value of kind %s", v.Kind)
		}
	}
	return buf, nil
}

// DecodeTuple deserializes a tuple previously produced by EncodeTuple.
// The tuple and its strings are fresh allocations that never alias b, so
// b may be a view of a pinned page (see storage.Scanner.Next).
func DecodeTuple(b []byte) (Tuple, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, fmt.Errorf("corrupt tuple: bad arity varint")
	}
	// Every value takes at least its kind byte, so a larger arity is
	// corrupt; checking first keeps the allocation below bounded by the
	// record size.
	if n > uint64(len(b)-off) {
		return nil, fmt.Errorf("corrupt tuple: arity %d exceeds %d remaining bytes", n, len(b)-off)
	}
	t := make(Tuple, 0, n)
	pos := off
	for i := uint64(0); i < n; i++ {
		if pos >= len(b) {
			return nil, fmt.Errorf("corrupt tuple: truncated at value %d", i)
		}
		kind := Kind(b[pos])
		pos++
		switch kind {
		case KindNull:
			t = append(t, Null())
		case KindInt:
			v, w := binary.Varint(b[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("corrupt tuple: bad int varint at value %d", i)
			}
			pos += w
			t = append(t, Int(v))
		case KindFloat:
			if pos+8 > len(b) {
				return nil, fmt.Errorf("corrupt tuple: truncated float at value %d", i)
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(b[pos : pos+8]))
			pos += 8
			t = append(t, Float(f))
		case KindString:
			l, w := binary.Uvarint(b[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("corrupt tuple: bad string length at value %d", i)
			}
			pos += w
			if pos+int(l) > len(b) {
				return nil, fmt.Errorf("corrupt tuple: truncated string at value %d", i)
			}
			t = append(t, Str(string(b[pos:pos+int(l)])))
			pos += int(l)
		default:
			return nil, fmt.Errorf("corrupt tuple: unknown kind %d at value %d", kind, i)
		}
	}
	return t, nil
}

// wireValue is the JSON shape of a Value: the exported struct fields the
// type had before its payload moved behind accessors. Cache peers
// exchange []Tuple in this shape, so nodes running either layout
// interoperate.
type wireValue struct {
	Kind  Kind
	I     int64
	F     float64
	S     string
	Call  CallID
	Field int
}

// MarshalJSON implements json.Marshaler with the wireValue shape.
func (v Value) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireValue{Kind: v.Kind, I: v.I(), F: v.F(), S: v.S, Call: v.Call(), Field: v.Field()})
}

// UnmarshalJSON implements json.Unmarshaler for the wireValue shape,
// keeping the payload the kind selects.
func (v *Value) UnmarshalJSON(b []byte) error {
	var w wireValue
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	switch w.Kind {
	case KindNull:
		*v = Null()
	case KindInt:
		*v = Int(w.I)
	case KindFloat:
		*v = Float(w.F)
	case KindString:
		*v = Str(w.S)
	case KindPlaceholder:
		*v = Placeholder(w.Call, w.Field)
	default:
		return fmt.Errorf("unknown value kind %d", w.Kind)
	}
	return nil
}
