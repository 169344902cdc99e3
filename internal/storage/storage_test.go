package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------------
// Page

func TestPageInsertGet(t *testing.T) {
	var p Page
	p.Reset()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("")}
	var slots []int
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("slot %d: got %q, want %q", s, got, recs[i])
		}
	}
	if p.NumSlots() != 3 {
		t.Errorf("NumSlots = %d", p.NumSlots())
	}
}

func TestPageDeleteAndSlotReuse(t *testing.T) {
	var p Page
	p.Reset()
	s0, _ := p.Insert([]byte("one"))
	s1, _ := p.Insert([]byte("two"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if p.Live(s0) {
		t.Error("deleted slot should not be live")
	}
	if !p.Live(s1) {
		t.Error("other slot should stay live")
	}
	if _, err := p.Get(s0); err == nil {
		t.Error("Get of deleted slot should error")
	}
	if err := p.Delete(s0); err == nil {
		t.Error("double delete should error")
	}
	// Reinsert reuses the tombstoned slot number.
	s2, _ := p.Insert([]byte("three"))
	if s2 != s0 {
		t.Errorf("slot not reused: got %d, want %d", s2, s0)
	}
}

func TestPageFull(t *testing.T) {
	var p Page
	p.Reset()
	rec := make([]byte, 512)
	n := 0
	for p.CanFit(len(rec)) {
		if _, err := p.Insert(rec); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no records fit")
	}
	if _, err := p.Insert(rec); err == nil {
		t.Error("insert into full page should error")
	}
	// Oversized record.
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("oversized record should error")
	}
}

func TestPageBoundsChecks(t *testing.T) {
	var p Page
	p.Reset()
	if _, err := p.Get(0); err == nil {
		t.Error("Get on empty page")
	}
	if err := p.Delete(5); err == nil {
		t.Error("Delete out of range")
	}
	if p.Live(-1) || p.Live(99) {
		t.Error("Live out of range")
	}
}

// ---------------------------------------------------------------------------
// HeapFile

func openTemp(t *testing.T, frames int) *HeapFile {
	t.Helper()
	h, err := OpenHeapFile(filepath.Join(t.TempDir(), "t.tbl"), frames)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestHeapInsertScan(t *testing.T) {
	h := openTemp(t, 8)
	const n = 500
	want := make(map[string]bool)
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte("x"), i%97)))
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
		want[string(rec)] = true
	}
	sc := h.NewScanner()
	defer sc.Close()
	got := 0
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !want[string(rec)] {
			t.Fatalf("unexpected record %q", rec)
		}
		got++
	}
	if got != n {
		t.Fatalf("scanned %d records, want %d", got, n)
	}
	if h.NumPages() < 2 {
		t.Error("expected multiple pages")
	}
}

func TestHeapGetDelete(t *testing.T) {
	h := openTemp(t, 8)
	rid1, _ := h.Insert([]byte("keep"))
	rid2, _ := h.Insert([]byte("drop"))
	if got, _ := h.Get(rid1); string(got) != "keep" {
		t.Errorf("Get: %q", got)
	}
	if err := h.Delete(rid2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid2); err == nil {
		t.Error("Get of deleted rid should error")
	}
	// Scan sees only the live record.
	sc := h.NewScanner()
	defer sc.Close()
	count := 0
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 1 {
		t.Errorf("scan after delete: %d records", count)
	}
}

func TestHeapPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.tbl")
	h, err := OpenHeapFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify.
	h2, err := OpenHeapFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	for i, rid := range rids {
		got, err := h2.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("v%d", i) {
			t.Errorf("rid %v: got %q", rid, got)
		}
	}
}

func TestBufferPoolEviction(t *testing.T) {
	h := openTemp(t, 2) // tiny pool forces eviction
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte("z"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 10 {
		t.Fatalf("want many pages, got %d", h.NumPages())
	}
	// Full scan with a 2-frame pool must evict and re-read correctly.
	sc := h.NewScanner()
	defer sc.Close()
	n := 0
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(rec) != 100 {
			t.Fatalf("bad record length %d", len(rec))
		}
		n++
	}
	if n != 2000 {
		t.Fatalf("scan count %d", n)
	}
	if h.Pool().Evictions == 0 {
		t.Error("expected evictions with a 2-frame pool")
	}
}

// TestBufferPoolMissAllocatesNothing: on a full pool a miss reuses the
// evicted frame (and its LRU element) instead of allocating a new one.
func TestBufferPoolMissAllocatesNothing(t *testing.T) {
	h := openTemp(t, 2)
	for h.NumPages() < 5 {
		if _, err := h.Insert(bytes.Repeat([]byte("m"), 500)); err != nil {
			t.Fatal(err)
		}
	}
	bp := h.Pool()
	pageNo := uint32(0)
	pinNext := func() {
		if _, err := bp.Pin(pageNo); err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(pageNo, false); err != nil {
			t.Fatal(err)
		}
		pageNo = (pageNo + 1) % 5 // five pages through two frames: every pin misses
	}
	for i := 0; i < 5; i++ {
		pinNext()
	}
	_, misses, _ := bp.StatsSnapshot()
	if n := testing.AllocsPerRun(100, pinNext); n != 0 {
		t.Errorf("buffer pool miss: %v allocs, want 0", n)
	}
	if _, after, _ := bp.StatsSnapshot(); after-misses != 101 {
		t.Errorf("%d misses over 101 pins, want every pin to miss", after-misses)
	}
}

// TestScanThroughReusedFrames: with two frames, every page of a scan is
// read into a frame that held another page, and every record must still
// read back exactly as written.
func TestScanThroughReusedFrames(t *testing.T) {
	h := openTemp(t, 2)
	var want []string
	for i := 0; i < 600; i++ {
		rec := fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, i%90))
		if _, err := h.Insert([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	for pass := 0; pass < 2; pass++ {
		sc := h.NewScanner()
		i := 0
		for {
			_, rec, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if i >= len(want) || string(rec) != want[i] {
				t.Fatalf("pass %d record %d: %q", pass, i, rec)
			}
			i++
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("pass %d: %d records, want %d", pass, i, len(want))
		}
	}
}

func TestBufferPoolPinAccounting(t *testing.T) {
	h := openTemp(t, 4)
	if _, err := h.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	bp := h.Pool()
	p, err := bp.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil page")
	}
	if err := bp.Unpin(0, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(0, false); err == nil {
		t.Error("unpin below zero should error")
	}
	if _, err := bp.Pin(9999); err == nil {
		t.Error("pin out of range should error")
	}
	if err := bp.Unpin(4242, false); err == nil {
		t.Error("unpin of non-resident page should error")
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	dir := t.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, "x.tbl"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bp, err := NewBufferPool(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := bp.AppendPage(); err != nil {
			t.Fatal(err)
		}
	}
	// Both frames pinned: appending a third page must fail cleanly.
	if _, _, err := bp.AppendPage(); err == nil {
		t.Error("append with all frames pinned should error")
	}
	bp.Unpin(0, false)
	if _, _, err := bp.AppendPage(); err != nil {
		t.Errorf("append after unpin: %v", err)
	}
}

func TestScannerCloseMidway(t *testing.T) {
	h := openTemp(t, 4)
	for i := 0; i < 50; i++ {
		h.Insert([]byte("row"))
	}
	sc := h.NewScanner()
	if _, _, ok, err := sc.Next(); err != nil || !ok {
		t.Fatal("first next")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal("double close must be safe")
	}
	// After close, Next reports exhaustion.
	if _, _, ok, _ := sc.Next(); ok {
		t.Error("next after close")
	}
}

// Property: insert/delete sequences preserve exactly the live set.
func TestHeapPropertyLiveSet(t *testing.T) {
	f := func(seed int64) bool {
		dir, err := os.MkdirTemp("", "heapprop-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		h, err := OpenHeapFile(filepath.Join(dir, "p.tbl"), 4)
		if err != nil {
			return false
		}
		defer h.Close()
		rng := rand.New(rand.NewSource(seed))
		live := make(map[RID]string)
		var rids []RID
		for i := 0; i < 300; i++ {
			if rng.Intn(3) > 0 || len(rids) == 0 {
				val := fmt.Sprintf("v%d-%d", seed, i)
				rid, err := h.Insert([]byte(val))
				if err != nil {
					return false
				}
				live[rid] = val
				rids = append(rids, rid)
			} else {
				k := rng.Intn(len(rids))
				rid := rids[k]
				rids = append(rids[:k], rids[k+1:]...)
				if _, ok := live[rid]; !ok {
					continue
				}
				if err := h.Delete(rid); err != nil {
					return false
				}
				delete(live, rid)
			}
		}
		// Scan must produce exactly the live set.
		sc := h.NewScanner()
		defer sc.Close()
		got := make(map[RID]string)
		for {
			rid, rec, ok, err := sc.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got[rid] = string(rec)
		}
		if len(got) != len(live) {
			return false
		}
		for rid, val := range live {
			if got[rid] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
