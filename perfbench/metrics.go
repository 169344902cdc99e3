package main

import (
	"slices"

	"repro/internal/core"
)

// runtimeMetrics derives the process-level per-query costs of the timed
// phase. They cover the whole benchmark process: the program plus the
// load generator and replayed engines that share its cores.
func runtimeMetrics(m map[string]float64, a, b rtSnap, queries float64) {
	m["runtime.cpu_ms_per_query"] = ratio(float64((b.cpu-a.cpu).Microseconds())/1000, queries)
	m["runtime.alloc_kb_per_query"] = ratio(float64(b.allocB-a.allocB)/1024, queries)
	m["runtime.gc_cycles_per_kquery"] = ratio(float64(b.gcCycles-a.gcCycles)*1000, queries)
}

// tableIO is one heap file's buffer-pool counters.
type tableIO struct {
	hits, misses uint64
	pages        uint32
}

// storageSnap maps table name (as created) to its counters.
type storageSnap map[string]tableIO

// takeStorage reads the buffer-pool counters of every stored table.
func takeStorage(db *core.DB) storageSnap {
	out := storageSnap{}
	cat := db.Catalog()
	for _, name := range cat.TableNames() {
		t, ok := cat.Get(name)
		if !ok {
			continue
		}
		hits, misses, _ := t.Heap.Pool().StatsSnapshot()
		out[name] = tableIO{hits: hits, misses: misses, pages: t.Heap.NumPages()}
	}
	return out
}

// delta returns b - a per table.
func (b storageSnap) delta(a storageSnap) storageSnap {
	out := storageSnap{}
	for name, tb := range b {
		ta := a[name]
		out[name] = tableIO{hits: tb.hits - ta.hits, misses: tb.misses - ta.misses, pages: tb.pages - ta.pages}
	}
	return out
}

// hitFrac is the buffer-pool hit fraction over the given tables (all when
// none are named).
func (s storageSnap) hitFrac(names ...string) float64 {
	var hits, total uint64
	for name, t := range s {
		if len(names) > 0 && !slices.Contains(names, name) {
			continue
		}
		hits += t.hits
		total += t.hits + t.misses
	}
	return ratio(float64(hits), float64(total))
}

// storageMetrics derives the storage layer's per-query costs of the timed
// phase.
func storageMetrics(m map[string]float64, before, after storageSnap, queries float64) {
	d := after.delta(before)
	var misses uint64
	var appended uint32
	for _, t := range d {
		misses += t.misses
		appended += t.pages
	}
	m["storage.pool_hit_frac"] = d.hitFrac()
	m["storage.page_misses_per_query"] = ratio(float64(misses), queries)
	m["storage.pages_appended"] = float64(appended)
}
