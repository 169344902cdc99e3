package exec

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort fully materializes its input at Open and emits it ordered. A sort
// always clashes with ReqSync when its keys are call-supplied attributes
// (it must observe final values), which is why the paper's Figure 3 plan
// has Sort above ReqSync.
type Sort struct {
	Child Operator
	Keys  []SortKey

	rows []types.Tuple
	pos  int
}

// NewSort builds a sort over child.
func NewSort(child Operator, keys []SortKey) *Sort {
	return &Sort{Child: child, Keys: keys}
}

// Schema implements Operator.
func (s *Sort) Schema() *schema.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(ctx *Context) error {
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	exprs := make([]expr.Expr, len(s.Keys))
	for i, k := range s.Keys {
		exprs[i] = k.Expr
	}
	if err := bindAll("Sort", s.Child.Schema(), exprs...); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	s.pos = 0

	type keyed struct {
		row  types.Tuple
		keys []types.Value
	}
	var buf []keyed
	for {
		b, ok, err := NextBatchFrom(ctx, s.Child, 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, t := range b {
			ks := make([]types.Value, len(s.Keys))
			for i, k := range s.Keys {
				v, err := k.Expr.Eval(ctx.Env, t)
				if err != nil {
					return fmt.Errorf("Sort key %s: %w", k.Expr, err)
				}
				ks[i] = v
			}
			buf = append(buf, keyed{row: t, keys: ks})
		}
	}
	sort.SliceStable(buf, func(i, j int) bool {
		for k := range s.Keys {
			c := buf[i].keys[k].Compare(buf[j].keys[k])
			if c == 0 {
				continue
			}
			if s.Keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for _, kv := range buf {
		s.rows = append(s.rows, kv.row)
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next(ctx *Context) (types.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

// NextBatch implements BatchOperator by handing out windows of the sorted
// run materialized at Open.
func (s *Sort) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	end := s.pos + max
	if end > len(s.rows) {
		end = len(s.rows)
	}
	b := Batch(s.rows[s.pos:end:end])
	s.pos = end
	return b, true, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	return s.Child.Close()
}

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.Child} }

// SetChild implements Operator.
func (s *Sort) SetChild(i int, op Operator) {
	if i != 0 {
		panic("Sort has a single child")
	}
	s.Child = op
}

// Name implements Operator.
func (s *Sort) Name() string { return "Sort" }

// Describe implements Operator.
func (s *Sort) Describe() string {
	out := ""
	for i, k := range s.Keys {
		if i > 0 {
			out += ", "
		}
		out += k.Expr.String()
		if k.Desc {
			out += " DESC"
		}
	}
	return out
}

// KeyAttrs returns the attributes referenced by the sort keys.
func (s *Sort) KeyAttrs() map[schema.AttrID]bool {
	set := make(map[schema.AttrID]bool)
	for _, k := range s.Keys {
		k.Expr.CollectAttrs(set)
	}
	return set
}

// Limit emits at most N tuples. It is "existential" in the paper's clash
// taxonomy: the number of surviving tuples below it must be final, so a
// ReqSync can never be pulled above it.
type Limit struct {
	Child Operator
	N     int
	seen  int
}

// NewLimit builds a limit over child.
func NewLimit(child Operator, n int) *Limit { return &Limit{Child: child, N: n} }

// Schema implements Operator.
func (l *Limit) Schema() *schema.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *Context) error {
	l.seen = 0
	return l.Child.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next(ctx *Context) (types.Tuple, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	t, ok, err := l.Child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return t, true, nil
}

// NextBatch implements BatchOperator. The pull from the child is capped
// at the remaining quota, not at max: a limit must never over-draw its
// child, because below an EVScan every extra tuple is an extra external
// call.
func (l *Limit) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	rem := l.N - l.seen
	if rem <= 0 {
		return nil, false, nil
	}
	if max > rem {
		max = rem
	}
	b, ok, err := NextBatchFrom(ctx, l.Child, max)
	if err != nil || !ok {
		return nil, false, err
	}
	if len(b) > rem {
		b = b[:rem]
	}
	l.seen += len(b)
	return b, true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Child} }

// SetChild implements Operator.
func (l *Limit) SetChild(i int, op Operator) {
	if i != 0 {
		panic("Limit has a single child")
	}
	l.Child = op
}

// Name implements Operator.
func (l *Limit) Name() string { return "Limit" }

// Describe implements Operator.
func (l *Limit) Describe() string { return fmt.Sprintf("%d", l.N) }

// Distinct eliminates duplicate tuples. Like aggregation, it requires an
// accurate tally of incoming tuples and therefore always clashes with
// ReqSync percolation (clash case 3 in Section 4.5.2).
type Distinct struct {
	Child Operator
	seen  tupleSet
	keep  []bool // NextBatch scratch: which input tuples are new
}

// NewDistinct builds a duplicate-eliminating operator.
func NewDistinct(child Operator) *Distinct { return &Distinct{Child: child} }

// Schema implements Operator.
func (d *Distinct) Schema() *schema.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open(ctx *Context) error {
	d.seen = newTupleSet()
	return d.Child.Open(ctx)
}

// Next implements Operator.
func (d *Distinct) Next(ctx *Context) (types.Tuple, bool, error) {
	for {
		t, ok, err := d.Child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		if d.seen.add(t) {
			return t, true, nil
		}
	}
}

// NextBatch implements BatchOperator: duplicate elimination over whole
// child batches, survivors in a fresh slice allocated at its final
// length, looping until at least one new tuple appears or the child is
// exhausted.
func (d *Distinct) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	for {
		in, ok, err := NextBatchFrom(ctx, d.Child, max)
		if err != nil || !ok {
			return nil, false, err
		}
		d.keep = growBools(d.keep, len(in))
		n := 0
		for i, t := range in {
			d.keep[i] = d.seen.add(t)
			if d.keep[i] {
				n++
			}
		}
		if n > 0 {
			return compact(in, d.keep, n), true, nil
		}
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = tupleSet{}
	return d.Child.Close()
}

// Children implements Operator.
func (d *Distinct) Children() []Operator { return []Operator{d.Child} }

// SetChild implements Operator.
func (d *Distinct) SetChild(i int, op Operator) {
	if i != 0 {
		panic("Distinct has a single child")
	}
	d.Child = op
}

// Name implements Operator.
func (d *Distinct) Name() string { return "Distinct" }

// Describe implements Operator.
func (d *Distinct) Describe() string { return "" }
