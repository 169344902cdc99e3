package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/types"
)

// samples collects per-operation latencies in milliseconds. It is safe
// for concurrent use.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// pct returns the q-quantile (0..1) with linear interpolation between
// order statistics; 0 when empty.
func (s *samples) pct(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.ms...)
	s.mu.Unlock()
	return quantile(v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }

// ---------------------------------------------------------------------------
// Process-level counters

// rtSnap is a snapshot of the process's CPU time, allocation and GC
// counters.
type rtSnap struct {
	cpu      time.Duration
	allocB   uint64
	gcCycles uint64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return rtSnap{cpu: cpu, allocB: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// heapPeak samples the live heap (as of the last GC) every 5 ms while
// the timed phase runs. Its peak is the 99th percentile of the samples,
// not their maximum: a GC cycle marks everything allocated while it runs
// as live, so on an allocation-heavy workload the few cycles that race
// the busiest moments of the mutator read far above the rest. Over ten
// local_sql runs the maximum ranged from 4.1 to 8.8 MiB; over three, the
// 99th percentile stayed within 2.9-3.2 MiB.
type heapPeak struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.99)
}

// settle collects garbage from set-up so the timed phase starts from a
// clean heap.
func settle() {
	runtime.GC()
	runtime.GC()
}

// ---------------------------------------------------------------------------
// Canonical result rows for the oracles

// rowSet is a result's fingerprint: its row count and a hash of its
// rows in canonical form, sorted, so that it identifies the multiset of
// rows. Oracles keep fingerprints rather than rows, so that the
// expectations held through a timed phase stay small next to the
// program's own heap, which peak_heap_mb measures.
type rowSet struct {
	rows int
	sum  [sha256.Size]byte
}

// fingerprint hashes canonical rows, sorting them in place.
func fingerprint(canon []string) rowSet {
	sort.Strings(canon)
	h := sha256.New()
	for _, r := range canon {
		h.Write([]byte(r))
		h.Write([]byte{0x1e})
	}
	out := rowSet{rows: len(canon)}
	h.Sum(out.sum[:0])
	return out
}

func canonValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int64:
		return strconv.FormatInt(x, 10)
	case int:
		return strconv.Itoa(x)
	case types.Value:
		if x.IsNull() {
			return "NULL"
		}
		return x.AsString()
	default:
		return "?"
	}
}

func canonRow(vals []any) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = canonValue(v)
	}
	return strings.Join(parts, "\x1f")
}

func canonRows(rows [][]any) rowSet {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = canonRow(r)
	}
	return fingerprint(out)
}

// canonTuples canonicalizes an in-process result.
func canonTuples(rows []types.Tuple) rowSet {
	out := make([]string, len(rows))
	vals := make([]any, 0, 8)
	for i, r := range rows {
		vals = vals[:0]
		for _, v := range r {
			vals = append(vals, v)
		}
		out[i] = canonRow(vals)
	}
	return fingerprint(out)
}
