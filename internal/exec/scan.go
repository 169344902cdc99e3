package exec

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// TableScan is a full scan over a stored table. The scan's output schema is
// the per-query instantiation of the table's columns (fresh AttrIDs per
// occurrence in the FROM clause).
type TableScan struct {
	Table *catalog.Table
	Out   *schema.Schema

	sc *storage.Scanner
}

// NewTableScan builds a scan over t producing the given instantiated schema.
func NewTableScan(t *catalog.Table, out *schema.Schema) *TableScan {
	return &TableScan{Table: t, Out: out}
}

// Schema implements Operator.
func (s *TableScan) Schema() *schema.Schema { return s.Out }

// Open implements Operator; re-opening restarts the scan (dependent joins
// and nested-loop joins re-open their inner input).
func (s *TableScan) Open(ctx *Context) error {
	if s.sc != nil {
		if err := s.sc.Close(); err != nil {
			return err
		}
	}
	s.sc = s.Table.Heap.NewScanner()
	return nil
}

// Next implements Operator.
func (s *TableScan) Next(ctx *Context) (types.Tuple, bool, error) {
	if s.sc == nil {
		return nil, false, fmt.Errorf("TableScan(%s): Next before Open", s.Table.Def.Name)
	}
	_, raw, ok, err := s.sc.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	t, err := types.DecodeTuple(raw)
	if err != nil {
		return nil, false, fmt.Errorf("TableScan(%s): %w", s.Table.Def.Name, err)
	}
	if len(t) != s.Out.Len() {
		return nil, false, fmt.Errorf("TableScan(%s): stored tuple width %d != schema width %d",
			s.Table.Def.Name, len(t), s.Out.Len())
	}
	return t, true, nil
}

// NextBatch implements BatchOperator: one storage-scanner loop per batch
// instead of one protocol call per stored tuple. Each record is decoded
// straight out of the scanner's page view into a fresh tuple, and the
// batch is allocated once at its final capacity, max.
func (s *TableScan) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if s.sc == nil {
		return nil, false, fmt.Errorf("TableScan(%s): NextBatch before Open", s.Table.Def.Name)
	}
	out := make(Batch, 0, min(max, maxScanPrealloc))
	for len(out) < max {
		_, raw, ok, err := s.sc.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		t, err := types.DecodeTuple(raw)
		if err != nil {
			return nil, false, fmt.Errorf("TableScan(%s): %w", s.Table.Def.Name, err)
		}
		if len(t) != s.Out.Len() {
			return nil, false, fmt.Errorf("TableScan(%s): stored tuple width %d != schema width %d",
				s.Table.Def.Name, len(t), s.Out.Len())
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// maxScanPrealloc bounds the capacity TableScan.NextBatch allocates up
// front, so an oversized batch request cannot force a huge allocation
// for a short table; batches beyond it grow by append.
const maxScanPrealloc = 4 * DefaultBatchSize

// Close implements Operator.
func (s *TableScan) Close() error {
	if s.sc == nil {
		return nil
	}
	err := s.sc.Close()
	s.sc = nil
	return err
}

// Children implements Operator.
func (s *TableScan) Children() []Operator { return nil }

// SetChild implements Operator.
func (s *TableScan) SetChild(int, Operator) {
	panic("TableScan has no children")
}

// Name implements Operator.
func (s *TableScan) Name() string { return "Scan" }

// Describe implements Operator.
func (s *TableScan) Describe() string {
	alias := ""
	if len(s.Out.Cols) > 0 && s.Out.Cols[0].Table != s.Table.Def.Name {
		alias = " " + s.Out.Cols[0].Table
	}
	return s.Table.Def.Name + alias
}

// ValuesScan replays an in-memory tuple list; it backs tests and internal
// tools that need a leaf without storage.
type ValuesScan struct {
	Out  *schema.Schema
	Rows []types.Tuple
	pos  int
}

// NewValuesScan builds an in-memory scan.
func NewValuesScan(out *schema.Schema, rows []types.Tuple) *ValuesScan {
	return &ValuesScan{Out: out, Rows: rows}
}

// Schema implements Operator.
func (v *ValuesScan) Schema() *schema.Schema { return v.Out }

// Open implements Operator.
func (v *ValuesScan) Open(ctx *Context) error { v.pos = 0; return nil }

// Next implements Operator.
func (v *ValuesScan) Next(ctx *Context) (types.Tuple, bool, error) {
	if v.pos >= len(v.Rows) {
		return nil, false, nil
	}
	t := v.Rows[v.pos]
	v.pos++
	return t, true, nil
}

// NextBatch implements BatchOperator by handing out windows of the row
// list; callers must not mutate the returned slice (see Batch).
func (v *ValuesScan) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if v.pos >= len(v.Rows) {
		return nil, false, nil
	}
	end := v.pos + max
	if end > len(v.Rows) {
		end = len(v.Rows)
	}
	b := Batch(v.Rows[v.pos:end:end])
	v.pos = end
	return b, true, nil
}

// Close implements Operator.
func (v *ValuesScan) Close() error { return nil }

// Children implements Operator.
func (v *ValuesScan) Children() []Operator { return nil }

// SetChild implements Operator.
func (v *ValuesScan) SetChild(int, Operator) { panic("ValuesScan has no children") }

// Name implements Operator.
func (v *ValuesScan) Name() string { return "Values" }

// Describe implements Operator.
func (v *ValuesScan) Describe() string { return fmt.Sprintf("%d rows", len(v.Rows)) }
