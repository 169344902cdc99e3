package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/websim"
)

var (
	corpusOnce sync.Once
	corpus     *websim.Corpus
)

func testCorpus() *websim.Corpus {
	corpusOnce.Do(func() { corpus = buildCorpus() })
	return corpus
}

// recorder wraps an engine and remembers every key the program asked it
// for.
type recorder struct {
	inner search.Engine
	mu    sync.Mutex
	keys  []string
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) note(k string) {
	r.mu.Lock()
	r.keys = append(r.keys, k)
	r.mu.Unlock()
}

func (r *recorder) Count(q string) (int64, error) {
	r.note("count|" + q)
	return r.inner.Count(q)
}

func (r *recorder) Search(q string, k int) ([]search.Result, error) {
	r.note(fmt.Sprintf("search|%s|%d", q, k))
	return r.inner.Search(q, k)
}

func (r *recorder) Fetch(u string) (string, error) {
	r.note("fetch|" + u)
	return r.inner.Fetch(u)
}

// workloadSQL is the replay and the distinct statements of one
// engine-calling workload.
type workloadSQL struct {
	r    *replay
	sqls []string
}

// workloadsAt returns each engine-calling workload's replay (unresolved)
// and statements at a seed.
func workloadsAt(t *testing.T, seed int64) map[string]workloadSQL {
	t.Helper()
	out := map[string]workloadSQL{}

	r := newReplay()
	var sqls []string
	for _, cell := range table1Queries() {
		for _, q := range cell {
			q.want(r)
			sqls = append(sqls, q.sql())
		}
	}
	out["table1"] = workloadSQL{r, sqls}

	pool, _, r2 := servePool(seed)
	sqls = nil
	for _, qs := range pool {
		for _, q := range qs {
			sqls = append(sqls, q.sql)
		}
	}
	out["serve_hot"] = workloadSQL{r2, sqls}

	ring := shard.NewRing([]shard.Member{{ID: "w1"}, {ID: "w2"}}, shard.DefaultVNodes)
	sched, err := tierSchedule(seed, 200, ring)
	if err != nil {
		t.Fatal(err)
	}
	r3 := newReplay()
	seen := map[string]bool{}
	sqls = nil
	for _, q := range sched {
		if q.class == "cold" {
			templateQuery{tmpl: 1, v1: q.word}.want(r3)
		}
		if !seen[q.sql] {
			seen[q.sql] = true
			sqls = append(sqls, q.sql)
		}
	}
	out["tier_cold"] = workloadSQL{r3, sqls}
	return out
}

// TestReplayMatchesWebsim runs every distinct statement of each seeded
// workload once, synchronously and asynchronously, against the replay
// engines, and checks that every key the program requested is replayed
// with websim's exact answer. A corrupted entry must then be caught.
func TestReplayMatchesWebsim(t *testing.T) {
	c := testCorpus()
	ctx := context.Background()
	for name, w := range workloadsAt(t, 7) {
		t.Run(name, func(t *testing.T) {
			if err := w.r.resolve(c); err != nil {
				t.Fatal(err)
			}
			db, err := core.Open(core.Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			av, g := &recorder{inner: w.r.av}, &recorder{inner: w.r.google}
			db.RegisterEngine(av, "AV")
			db.RegisterEngine(g, "G")
			if err := loadPaperTables(ctx, db); err != nil {
				t.Fatal(err)
			}
			for _, async := range []bool{false, true} {
				db.SetAsync(async)
				for _, sql := range w.sqls {
					if _, err := db.QueryContext(ctx, sql); err != nil {
						t.Fatalf("async=%v %q: %v", async, sql, err)
					}
				}
			}
			requested := map[string]bool{}
			for _, rec := range []*recorder{av, g} {
				for _, k := range rec.keys {
					requested[rec.Name()+"|"+k] = true
				}
			}
			held := len(w.r.av.counts) + len(w.r.av.searches) + len(w.r.google.counts) + len(w.r.google.searches)
			if len(requested) != held {
				t.Errorf("program requested %d distinct keys, replay holds %d", len(requested), held)
			}
			if err := w.r.verify(c); err != nil {
				t.Fatalf("replay differs from websim: %v", err)
			}

			// Corrupt one answer the program requested; verify must
			// notice.
			corrupted := false
			for q, n := range w.r.av.counts {
				w.r.av.counts[q] = n + 1
				corrupted = true
				break
			}
			if !corrupted {
				for k, res := range w.r.av.searches {
					if len(res) > 0 {
						res[0].URL += "#corrupt"
						w.r.av.searches[k] = res
						corrupted = true
						break
					}
				}
			}
			if !corrupted {
				t.Fatal("no replay entry to corrupt")
			}
			if err := w.r.verify(c); err == nil {
				t.Fatal("verify accepted a corrupted replay entry")
			}
		})
	}
}

// TestReplayCatchesCorruptSearch corrupts a search result (not a count)
// and checks verify reports it.
func TestReplayCatchesCorruptSearch(t *testing.T) {
	r := newReplay()
	q := templateQuery{tmpl: 3, v1: "computer"}
	q.want(r)
	if err := r.resolve(testCorpus()); err != nil {
		t.Fatal(err)
	}
	if err := r.verify(testCorpus()); err != nil {
		t.Fatal(err)
	}
	for k, res := range r.google.searches {
		if len(res) > 1 {
			res[0], res[1] = res[1], res[0]
			r.google.searches[k] = res
			if err := r.verify(testCorpus()); err == nil {
				t.Fatal("verify accepted reordered search results")
			}
			return
		}
	}
	t.Fatal("no multi-result search to corrupt")
}

// TestReplayUnknownKey checks that a key outside the table is an error,
// not a silent zero.
func TestReplayUnknownKey(t *testing.T) {
	r := newReplay()
	if _, err := r.av.Count("Nowhere near nothing"); err == nil {
		t.Fatal("unknown count key answered")
	}
	if _, err := r.google.Search("Nowhere nothing", 3); err == nil {
		t.Fatal("unknown search key answered")
	}
}

// verify checks every replayed answer against websim and returns the
// first difference.
func (r *replay) verify(c *websim.Corpus) error {
	for _, e := range []*replayEngine{r.av, r.google} {
		sim := simEngine(c, e.name)
		for q, got := range e.counts {
			n, err := sim.Count(q)
			if err != nil {
				return err
			}
			if n != got {
				return fmt.Errorf("replay %s count %q = %d, websim says %d", e.name, q, got, n)
			}
		}
		for key, got := range e.searches {
			want, err := sim.Search(key.query, key.k)
			if err != nil {
				return err
			}
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("replay %s search %q k=%d differs from websim", e.name, key.query, key.k)
			}
		}
	}
	return nil
}
