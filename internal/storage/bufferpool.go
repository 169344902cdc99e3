package storage

import (
	"container/list"
	"fmt"
	"os"
	"sync"
)

// BufferPool caches pages of one underlying file in memory with pin
// counting and LRU replacement of unpinned frames. It is the "page-level
// buffer" of the Redbase substrate.
//
// Pool bookkeeping (frame map, LRU list, pin counts, stats) is guarded by
// a mutex so that any number of concurrent scanners — one per query in a
// multi-client server — can share the pool. Page *contents* are protected
// by the pin protocol plus the engine's reader/writer discipline: a pinned
// frame is never evicted, readers only read page bytes, and writers
// (INSERT/CREATE/DROP) run exclusively at the DB layer.
type BufferPool struct {
	file      *os.File
	maxFrames int

	mu       sync.Mutex
	frames   map[uint32]*frame
	lru      *list.List // of *frame; front = most recently used
	numPages uint32
	// Stats for tests and EXPLAIN-level diagnostics; read them only when
	// no operations are concurrently in flight (or via StatsSnapshot).
	Hits, Misses, Evictions uint64
}

type frame struct {
	pageNo uint32
	page   Page
	pins   int
	dirty  bool
	elem   *list.Element
}

// DefaultPoolSize is the default number of buffer frames.
const DefaultPoolSize = 64

// NewBufferPool wraps an open file in a buffer pool with the given frame
// budget. The file length must be a multiple of PageSize.
func NewBufferPool(f *os.File, maxFrames int) (*BufferPool, error) {
	if maxFrames < 1 {
		maxFrames = DefaultPoolSize
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("stat heap file: %w", err)
	}
	if fi.Size()%PageSize != 0 {
		return nil, fmt.Errorf("heap file size %d is not a multiple of page size %d", fi.Size(), PageSize)
	}
	return &BufferPool{
		file:      f,
		maxFrames: maxFrames,
		frames:    make(map[uint32]*frame),
		lru:       list.New(),
		numPages:  uint32(fi.Size() / PageSize),
	}, nil
}

// NumPages returns the number of pages in the file.
func (bp *BufferPool) NumPages() uint32 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.numPages
}

// StatsSnapshot returns the hit/miss/eviction counters consistently.
func (bp *BufferPool) StatsSnapshot() (hits, misses, evictions uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.Hits, bp.Misses, bp.Evictions
}

// Pin fetches the page into the pool (reading from disk on a miss) and
// pins it. Every Pin must be paired with an Unpin.
func (bp *BufferPool) Pin(pageNo uint32) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if pageNo >= bp.numPages {
		return nil, fmt.Errorf("page %d out of range (file has %d pages)", pageNo, bp.numPages)
	}
	if fr, ok := bp.frames[pageNo]; ok {
		bp.Hits++
		fr.pins++
		bp.lru.MoveToFront(fr.elem)
		return &fr.page, nil
	}
	bp.Misses++
	fr, err := bp.makeRoom()
	if err != nil {
		return nil, err
	}
	if _, err := bp.file.ReadAt(fr.page.Bytes(), int64(pageNo)*PageSize); err != nil {
		bp.release(fr)
		return nil, fmt.Errorf("read page %d: %w", pageNo, err)
	}
	bp.install(fr, pageNo, false)
	return &fr.page, nil
}

// AppendPage extends the file by one zeroed page, pins it, and returns its
// page number.
func (bp *BufferPool) AppendPage() (uint32, *Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, err := bp.makeRoom()
	if err != nil {
		return 0, nil, err
	}
	pageNo := bp.numPages
	fr.page.Reset()
	if _, err := bp.file.WriteAt(fr.page.Bytes(), int64(pageNo)*PageSize); err != nil {
		bp.release(fr)
		return 0, nil, fmt.Errorf("extend file with page %d: %w", pageNo, err)
	}
	bp.numPages++
	bp.install(fr, pageNo, true)
	return pageNo, &fr.page, nil
}

// Unpin releases one pin on the page, optionally marking it dirty.
func (bp *BufferPool) Unpin(pageNo uint32, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[pageNo]
	if !ok {
		return fmt.Errorf("unpin of page %d that is not resident", pageNo)
	}
	if fr.pins <= 0 {
		return fmt.Errorf("unpin of page %d with zero pin count", pageNo)
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
	return nil
}

// makeRoom returns a frame for a new resident page: a fresh one while
// the pool is below capacity, otherwise the least recently used unpinned
// frame, evicted (written back first if dirty) and handed over for reuse
// so that a miss on a full pool allocates nothing. An evicted frame
// leaves the frame map but keeps its LRU element until install moves it
// to the front, or release drops it if the caller cannot fill the frame.
// Callers hold bp.mu from makeRoom through install or release.
func (bp *BufferPool) makeRoom() (*frame, error) {
	if len(bp.frames) < bp.maxFrames {
		return &frame{}, nil
	}
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		fr := e.Value.(*frame)
		if fr.pins > 0 {
			continue
		}
		if fr.dirty {
			if _, err := bp.file.WriteAt(fr.page.Bytes(), int64(fr.pageNo)*PageSize); err != nil {
				return nil, fmt.Errorf("write back page %d: %w", fr.pageNo, err)
			}
		}
		delete(bp.frames, fr.pageNo)
		bp.Evictions++
		return fr, nil
	}
	return nil, fmt.Errorf("buffer pool exhausted: all %d frames pinned", bp.maxFrames)
}

// install makes fr, from makeRoom, the pinned resident frame of pageNo
// at the front of the LRU list.
func (bp *BufferPool) install(fr *frame, pageNo uint32, dirty bool) {
	fr.pageNo, fr.pins, fr.dirty = pageNo, 1, dirty
	if fr.elem == nil {
		fr.elem = bp.lru.PushFront(fr)
	} else {
		bp.lru.MoveToFront(fr.elem)
	}
	bp.frames[pageNo] = fr
}

// release drops fr, from makeRoom, when it could not be filled; the pool
// is then one frame short of capacity until the next miss.
func (bp *BufferPool) release(fr *frame) {
	if fr.elem != nil {
		bp.lru.Remove(fr.elem)
		fr.elem = nil
	}
}

// FlushAll writes every dirty resident page back to disk.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.frames {
		if !fr.dirty {
			continue
		}
		if _, err := bp.file.WriteAt(fr.page.Bytes(), int64(fr.pageNo)*PageSize); err != nil {
			return fmt.Errorf("flush page %d: %w", fr.pageNo, err)
		}
		fr.dirty = false
	}
	return nil
}
