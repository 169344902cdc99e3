package storage

import (
	"fmt"
	"os"
	"sync"
)

// RID identifies a record within a heap file by page and slot.
type RID struct {
	Page uint32
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile is an unordered file of variable-length records stored in
// slotted pages, accessed through a buffer pool.
type HeapFile struct {
	path string
	f    *os.File
	bp   *BufferPool
	// wmu serializes record mutations (insert hint + page writes). Readers
	// coordinate with writers at a higher layer (core.DB's RW lock).
	wmu sync.Mutex
	// hint: last page that accepted an insert, to avoid rescanning.
	insertHint uint32
}

// OpenHeapFile opens (creating if necessary) a heap file at path with the
// given buffer-pool frame budget.
func OpenHeapFile(path string, poolFrames int) (*HeapFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open heap file %s: %w", path, err)
	}
	bp, err := NewBufferPool(f, poolFrames)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &HeapFile{path: path, f: f, bp: bp}, nil
}

// Close flushes dirty pages and closes the file.
func (h *HeapFile) Close() error {
	if err := h.bp.FlushAll(); err != nil {
		h.f.Close()
		return err
	}
	return h.f.Close()
}

// Path returns the on-disk path of the heap file.
func (h *HeapFile) Path() string { return h.path }

// NumPages returns the page count.
func (h *HeapFile) NumPages() uint32 { return h.bp.NumPages() }

// Pool exposes the buffer pool (for stats in tests).
func (h *HeapFile) Pool() *BufferPool { return h.bp }

// Insert appends a record, returning its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	if len(rec) > MaxRecordSize {
		return RID{}, fmt.Errorf("record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	// Try the hint page first, then fall back to appending a new page.
	if h.bp.NumPages() > 0 {
		p, err := h.bp.Pin(h.insertHint)
		if err != nil {
			return RID{}, err
		}
		if p.CanFit(len(rec)) {
			slot, err := p.Insert(rec)
			if err != nil {
				h.bp.Unpin(h.insertHint, false)
				return RID{}, err
			}
			if err := h.bp.Unpin(h.insertHint, true); err != nil {
				return RID{}, err
			}
			return RID{Page: h.insertHint, Slot: uint16(slot)}, nil
		}
		if err := h.bp.Unpin(h.insertHint, false); err != nil {
			return RID{}, err
		}
	}
	pageNo, p, err := h.bp.AppendPage()
	if err != nil {
		return RID{}, err
	}
	slot, err := p.Insert(rec)
	if err != nil {
		h.bp.Unpin(pageNo, false)
		return RID{}, err
	}
	if err := h.bp.Unpin(pageNo, true); err != nil {
		return RID{}, err
	}
	h.insertHint = pageNo
	return RID{Page: pageNo, Slot: uint16(slot)}, nil
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	p, err := h.bp.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	raw, err := p.Get(int(rid.Slot))
	if err != nil {
		h.bp.Unpin(rid.Page, false)
		return nil, err
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	if err := h.bp.Unpin(rid.Page, false); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	p, err := h.bp.Pin(rid.Page)
	if err != nil {
		return err
	}
	if err := p.Delete(int(rid.Slot)); err != nil {
		h.bp.Unpin(rid.Page, false)
		return err
	}
	return h.bp.Unpin(rid.Page, true)
}

// Flush writes all dirty pages back to disk without closing.
func (h *HeapFile) Flush() error { return h.bp.FlushAll() }

// Scanner iterates over the live records of a heap file in (page, slot)
// order. It pins at most one page at a time.
type Scanner struct {
	h      *HeapFile
	page   uint32
	slot   int
	pinned *Page
	done   bool
}

// NewScanner returns a scanner positioned before the first record.
func (h *HeapFile) NewScanner() *Scanner {
	return &Scanner{h: h, slot: -1}
}

// Next advances to the next live record, returning its RID and its
// bytes. It returns ok=false when the scan is exhausted.
//
// The bytes are a view of the pinned page, not a copy: they stay valid
// only until the next call to Next or Close, which may unpin the page
// and let the buffer pool reuse its frame for another page. A caller
// that keeps a record past that point must copy it (types.DecodeTuple
// already copies everything it returns).
func (s *Scanner) Next() (RID, []byte, bool, error) {
	if s.done {
		return RID{}, nil, false, nil
	}
	for {
		if s.pinned == nil {
			if s.page >= s.h.bp.NumPages() {
				s.done = true
				return RID{}, nil, false, nil
			}
			p, err := s.h.bp.Pin(s.page)
			if err != nil {
				s.done = true
				return RID{}, nil, false, err
			}
			s.pinned = p
			s.slot = -1
		}
		s.slot++
		if s.slot >= s.pinned.NumSlots() {
			if err := s.h.bp.Unpin(s.page, false); err != nil {
				s.done = true
				return RID{}, nil, false, err
			}
			s.pinned = nil
			s.page++
			continue
		}
		if !s.pinned.Live(s.slot) {
			continue
		}
		raw, err := s.pinned.Get(s.slot)
		if err != nil {
			return RID{}, nil, false, err
		}
		return RID{Page: s.page, Slot: uint16(s.slot)}, raw, true, nil
	}
}

// Close releases any pinned page. Safe to call multiple times.
func (s *Scanner) Close() error {
	if s.pinned != nil {
		err := s.h.bp.Unpin(s.page, false)
		s.pinned = nil
		s.done = true
		return err
	}
	s.done = true
	return nil
}
