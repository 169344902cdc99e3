package exec

import (
	"hash/maphash"
	"math"

	"repro/internal/expr"
	"repro/internal/types"
)

// The executor's hash structures. Join keys and grouping keys need
// different equalities (DESIGN.md §10): join keys follow Value.Compare,
// grouping keys follow Tuple.Key. Both hash to uint64 and keep every
// candidate for re-verification, so a hash collision costs a comparison,
// never a wrong answer.

// hashSeed seeds the string hashes of join and grouping keys.
var hashSeed = maphash.MakeSeed()

// joinKeyHash hashes key values for bucketing under Compare's equality:
// both numeric kinds hash through their float64 value, with -0 folded to
// +0 and every NaN alike, so values that Compare calls equal always
// share a bucket.
func joinKeyHash(vals []types.Value) uint64 {
	var h uint64
	for _, v := range vals {
		var u uint64
		switch v.Kind {
		case types.KindInt:
			u = numericBits(float64(v.I()))
		case types.KindFloat:
			u = numericBits(v.F())
		case types.KindString:
			u = maphash.String(hashSeed, v.S)
		}
		h = (h ^ u) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// numericBits returns the bits of f with -0 folded to +0 and NaNs
// canonicalized.
func numericBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return 0x7ff8000000000001
	}
	return math.Float64bits(f)
}

// hashChains links row indexes that share a hash into chains in
// insertion order, without a slice allocation per distinct hash.
type hashChains struct {
	ends map[uint64]chain
	next []int // next row index in the same chain, or -1
}

// chain locates the first and last rows with one hash.
type chain struct{ head, tail int }

func newHashChains() hashChains { return hashChains{ends: make(map[uint64]chain)} }

// link appends the next row index, len(next), under hash h and returns
// it.
func (c *hashChains) link(h uint64) int {
	i := len(c.next)
	c.next = append(c.next, -1)
	if e, ok := c.ends[h]; ok {
		c.next[e.tail] = i
		c.ends[h] = chain{head: e.head, tail: i}
	} else {
		c.ends[h] = chain{head: i, tail: i}
	}
	return i
}

// head returns the first row index under hash h, or -1.
func (c *hashChains) head(h uint64) int {
	if e, ok := c.ends[h]; ok {
		return e.head
	}
	return -1
}

// hashTable is the build side shared by HashJoin and HashSemiJoin: the
// build rows in right-scan order, chained by joinKeyHash so each chain
// also runs in scan order, with every row's evaluated keys stored
// contiguously for re-verification of candidates.
type hashTable struct {
	hashChains
	width int
	rows  []types.Tuple // nil entries when the rows are not kept
	keys  []types.Value // width keys per row
}

// build drains right into the table, evaluating keys per row and
// skipping rows with a NULL key (which can never equal anything). It
// keeps each row only when keepRows is set, and returns the rows added.
func (h *hashTable) build(ctx *Context, who string, right Operator, keys []expr.Expr, keepRows bool) (int64, error) {
	*h = hashTable{hashChains: newHashChains(), width: len(keys)}
	scratch := make([]types.Value, len(keys))
	var n int64
	for {
		b, ok, err := NextBatchFrom(ctx, right, 0)
		if err != nil || !ok {
			return n, err
		}
		for _, rt := range b {
			null, err := evalKeys(who, keys, ctx, rt, scratch)
			if err != nil {
				return n, err
			}
			if null {
				continue
			}
			if !keepRows {
				rt = nil
			}
			h.rows = append(h.rows, rt)
			h.keys = append(h.keys, scratch...)
			h.link(joinKeyHash(scratch))
			n++
		}
	}
}

// keysOf returns the evaluated keys of build row i.
func (h *hashTable) keysOf(i int) []types.Value {
	return h.keys[i*h.width : (i+1)*h.width]
}

// tupleSet holds distinct tuples under Key() identity, found by
// Tuple.KeyHash and confirmed by Tuple.KeyEqual, and indexed in
// insertion order.
type tupleSet struct {
	hashChains
	rows []types.Tuple
}

func newTupleSet() tupleSet { return tupleSet{hashChains: newHashChains()} }

// lookup returns the index of the tuple Key-equal to t, or -1, and t's
// key hash.
func (s *tupleSet) lookup(t types.Tuple) (int, uint64) {
	h := t.KeyHash(hashSeed)
	for i := s.head(h); i >= 0; i = s.next[i] {
		if s.rows[i].KeyEqual(t) {
			return i, h
		}
	}
	return -1, h
}

// insert adds t, which lookup did not find, under its key hash h and
// returns its index.
func (s *tupleSet) insert(t types.Tuple, h uint64) int {
	s.rows = append(s.rows, t)
	return s.link(h)
}

// add inserts t unless a Key-equal tuple is present, and reports whether
// t was new.
func (s *tupleSet) add(t types.Tuple) bool {
	i, h := s.lookup(t)
	if i >= 0 {
		return false
	}
	s.insert(t, h)
	return true
}
