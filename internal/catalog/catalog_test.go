package catalog

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/types"
)

func openTemp(t *testing.T) *Catalog {
	t.Helper()
	c, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var statesCols = []ColumnDef{
	{Name: "Name", Type: schema.TString},
	{Name: "Population", Type: schema.TInt},
	{Name: "Capital", Type: schema.TString},
}

func TestCreateGetDrop(t *testing.T) {
	c := openTemp(t)
	if _, err := c.Create("States", statesCols); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("states"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, err := c.Create("STATES", statesCols); err == nil {
		t.Error("duplicate create should error (case-insensitive)")
	}
	if got := c.TableNames(); len(got) != 1 || got[0] != "States" {
		t.Errorf("TableNames = %v", got)
	}
	if err := c.Drop("States"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("States"); ok {
		t.Error("dropped table still visible")
	}
	if err := c.Drop("States"); err == nil {
		t.Error("double drop should error")
	}
}

func TestCreateValidation(t *testing.T) {
	c := openTemp(t)
	if _, err := c.Create("Empty", nil); err == nil {
		t.Error("zero columns should error")
	}
	if _, err := c.Create("Dup", []ColumnDef{{Name: "A", Type: schema.TInt}, {Name: "a", Type: schema.TInt}}); err == nil {
		t.Error("duplicate column names should error")
	}
}

func TestInsertCoercionAndScan(t *testing.T) {
	c := openTemp(t)
	tab, err := c.Create("States", statesCols)
	if err != nil {
		t.Fatal(err)
	}
	// Float coerces to declared INT; ints stringify into VARCHAR.
	if _, err := tab.Insert(types.Tuple{types.Str("Utah"), types.Float(2100000.9), types.Int(42)}); err != nil {
		t.Fatal(err)
	}
	rows, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][1].Kind != types.KindInt || rows[0][1].I() != 2100000 {
		t.Errorf("population coerced wrong: %v", rows[0][1])
	}
	if rows[0][2].Kind != types.KindString || rows[0][2].S != "42" {
		t.Errorf("capital coerced wrong: %v", rows[0][2])
	}
	// Arity mismatch.
	if _, err := tab.Insert(types.Tuple{types.Str("x")}); err == nil {
		t.Error("arity mismatch should error")
	}
	// Bad coercion.
	if _, err := tab.Insert(types.Tuple{types.Str("x"), types.Str("notanumber"), types.Str("y")}); err == nil {
		t.Error("uncoercible value should error")
	}
	// NULLs pass through.
	if _, err := tab.Insert(types.Tuple{types.Null(), types.Null(), types.Null()}); err != nil {
		t.Errorf("NULL insert: %v", err)
	}
}

func TestCatalogPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := c.Create("Sigs", []ColumnDef{{Name: "Name", Type: schema.TString}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"SIGMOD", "SIGOPS"} {
		if _, err := tab.Insert(types.Tuple{types.Str(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	tab2, ok := c2.Get("Sigs")
	if !ok {
		t.Fatal("table lost after reopen")
	}
	if len(tab2.Def.Columns) != 1 || tab2.Def.Columns[0].Name != "Name" {
		t.Errorf("column defs lost: %+v", tab2.Def)
	}
	rows, err := tab2.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows after reopen = %d", len(rows))
	}
}

func TestInstantiateSchema(t *testing.T) {
	c := openTemp(t)
	tab, _ := c.Create("States", statesCols)
	s1 := tab.InstantiateSchema("")
	s2 := tab.InstantiateSchema("S")
	if s1.Cols[0].Table != "States" || s2.Cols[0].Table != "S" {
		t.Error("alias labeling")
	}
	// Fresh AttrIDs per instantiation (Query 4 references WebCount twice).
	for i := range s1.Cols {
		if s1.Cols[i].ID == s2.Cols[i].ID {
			t.Error("instantiations must not share AttrIDs")
		}
	}
	if s1.Cols[1].Type != schema.TInt {
		t.Error("column type propagated")
	}
}

func TestFlush(t *testing.T) {
	c := openTemp(t)
	tab, _ := c.Create("T", []ColumnDef{{Name: "A", Type: schema.TInt}})
	tab.Insert(types.Tuple{types.Int(1)})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}
