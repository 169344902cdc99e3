package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// Allocation guards for the local read path. Each pins one place where
// the executor used to allocate per row.

var hashSink uint64

func TestJoinKeyHashAllocatesNothing(t *testing.T) {
	for _, key := range []types.Value{types.Int(42), types.Float(-2.5), types.Str("Colorado")} {
		keys := []types.Value{key}
		if n := testing.AllocsPerRun(100, func() { hashSink = joinKeyHash(keys) }); n != 0 {
			t.Errorf("join key hash of %s %v: %v allocs, want 0", key.Kind, key, n)
		}
	}
}

func TestAggregateFoldAllocatesNothing(t *testing.T) {
	g, h, v := strCol("T", "G"), intCol("T", "H"), intCol("T", "V")
	in := schema.New(g, h, v)
	agg := NewAggregate(NewValuesScan(in, nil),
		[]expr.Expr{expr.NewColRef(g), expr.NewColRef(h)},
		[]schema.Column{g, h},
		[]AggSpec{
			{Func: AggCountStar, OutCol: intCol("", "n")},
			{Func: AggCount, Arg: expr.NewColRef(v), OutCol: intCol("", "c")},
			{Func: AggSum, Arg: expr.NewColRef(v), OutCol: intCol("", "s")},
			{Func: AggMin, Arg: expr.NewColRef(v), OutCol: intCol("", "mn")},
			{Func: AggMax, Arg: expr.NewColRef(v), OutCol: intCol("", "mx")},
			{Func: AggAvg, Arg: expr.NewColRef(v), OutCol: intCol("", "av")},
		})
	exprs := []expr.Expr{agg.GroupBy[0], agg.GroupBy[1]}
	for _, sp := range agg.Aggs {
		if sp.Arg != nil {
			exprs = append(exprs, sp.Arg)
		}
	}
	if err := bindAll("test", in, exprs...); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	gt := newGroupTable(agg)
	row := types.Tuple{types.Str("west"), types.Int(3), types.Int(7)}
	if err := gt.add(ctx, row); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := gt.add(ctx, row); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("folding into an existing group: %v allocs, want 0", n)
	}
	if len(gt.sts) != 1 || gt.sts[0][0].count != 101+1 {
		t.Errorf("groups %d, count %d", len(gt.sts), gt.sts[0][0].count)
	}
}

// TestTableScanBatchAllocations: over a resident heap, a scan allocates
// one tuple per row and one string per string column, plus a constant
// per batch (the batch slice) and per scan (the storage scanner).
func TestTableScanBatchAllocations(t *testing.T) {
	cat, err := catalog.Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	tbl, err := cat.Create("Fact", []catalog.ColumnDef{
		{Name: "Region", Type: schema.TString},
		{Name: "Qty", Type: schema.TInt},
		{Name: "Price", Type: schema.TFloat},
		{Name: "Tag", Type: schema.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows, strCols, batch = 1000, 2, 64
	for i := 0; i < rows; i++ {
		row := types.Tuple{types.Str(fmt.Sprintf("r%d", i%7)), types.Int(int64(i)), types.Float(float64(i) / 4), types.Str("tag")}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	scan := NewTableScan(tbl, tbl.InstantiateSchema(""))
	ctx := NewContext()
	drain := func() int {
		if err := scan.Open(ctx); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, ok, err := scan.NextBatch(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n += len(b)
		}
		if err := scan.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := drain(); got != rows { // also makes every page resident
		t.Fatalf("scanned %d rows, want %d", got, rows)
	}
	_, misses, _ := tbl.Heap.Pool().StatsSnapshot()
	batches := (rows + batch - 1) / batch
	budget := float64(rows*(1+strCols) + 2*batches + 2)
	if n := testing.AllocsPerRun(5, func() { drain() }); n > budget {
		t.Errorf("scan of %d rows in %d batches: %v allocs, budget %v", rows, batches, n, budget)
	}
	if _, after, _ := tbl.Heap.Pool().StatsSnapshot(); after != misses {
		t.Errorf("measured scans missed the pool %d times; the heap must stay resident", after-misses)
	}
}

// TestAggregateGroupsByKey: grouping is Key() identity — Int(1) and
// Float(1) are separate groups, as are -0 and 0, while every NaN lands
// in one group — and groups come out sorted by Key().
func TestAggregateGroupsByKey(t *testing.T) {
	g := schema.Column{ID: schema.NewAttrID(), Table: "T", Name: "G", Type: schema.TFloat}
	in := schema.New(g)
	domain := []types.Value{
		types.Int(1), types.Float(1), types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Float(math.NaN()), types.Float(math.Float64frombits(0x7ff8000000000abc)),
		types.Str("1"), types.Str("a"), types.Null(), types.Int(-4), types.Float(2.5),
	}
	rng := rand.New(rand.NewSource(3))
	var rows []types.Tuple
	want := map[string]int64{}
	for i := 0; i < 400; i++ {
		v := domain[rng.Intn(len(domain))]
		rows = append(rows, types.Tuple{v})
		want[types.Tuple{v}.Key()]++
	}
	agg := NewAggregate(NewValuesScan(in, rows),
		[]expr.Expr{expr.NewColRef(g)}, []schema.Column{g},
		[]AggSpec{{Func: AggCountStar, OutCol: intCol("", "n")}})
	out := runAll(t, agg)
	if len(out) != len(want) {
		t.Fatalf("%d groups, want %d: %v", len(out), len(want), out)
	}
	keys := make([]string, len(out))
	for i, r := range out {
		keys[i] = r[:1].Key()
		if r[1].I() != want[keys[i]] {
			t.Errorf("group %v: count %d, want %d", r[0], r[1].I(), want[keys[i]])
		}
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("groups not in Key() order: %q", keys)
	}
}
