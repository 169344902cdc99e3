package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
)

// How many times each run performs the program set-up; setup_s is their
// median. Every instance but the last is torn down. Set-ups that take a
// few milliseconds or less are repeated more: their run-to-run noise is
// larger.
const (
	setupRuns      = 9
	quickSetupRuns = 31
)

// repeatSetup runs set-up n times, closing all but the last instance,
// and returns that instance with the median set-up time in seconds.
//
// Every set-up starts from the same state: an empty database directory
// at the same path, and a collected heap. The directory is removed
// (untimed) between set-ups rather than a new one made for each. On
// small workloads set-up is mostly file creation, and on the development
// box creating a file in a new directory grew from about 60 to 600 us
// as directories accumulated, while in a reused one it held near 110 us;
// with a fresh path per set-up, table1's median set-up moved between
// 0.9 and 3.4 ms from run to run.
func repeatSetup[T any](cfg config, n int, setup func(dir string) (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	dir := filepath.Join(cfg.workDir, "setup")
	for i := 0; i < n; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return last, 0, err
		}
		runtime.GC()
		start := time.Now()
		v, err := setup(dir)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	logf("set-up x%d: min %.3fms median %.3fms max %.3fms", n,
		slices.Min(times)*1e3, median(times)*1e3, slices.Max(times)*1e3)
	return last, median(times), nil
}

// sqlQuote renders a string literal.
func sqlQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// loadPaperTables creates and fills the stored tables the templates and
// single-call queries join, through the SQL interface.
func loadPaperTables(ctx context.Context, db *core.DB) error {
	var states, sigs []string
	for _, s := range datasets.States {
		states = append(states, fmt.Sprintf("(%s, %d, %s)", sqlQuote(s.Name), s.Population, sqlQuote(s.Capital)))
	}
	for _, s := range datasets.Sigs {
		sigs = append(sigs, "("+sqlQuote(s)+")")
	}
	stmts := []string{
		`CREATE TABLE States (Name VARCHAR, Population INT, Capital VARCHAR)`,
		`INSERT INTO States VALUES ` + strings.Join(states, ", "),
		`CREATE TABLE Sigs (Name VARCHAR)`,
		`INSERT INTO Sigs VALUES ` + strings.Join(sigs, ", "),
		`CREATE TABLE One (Name VARCHAR)`,
		`INSERT INTO One VALUES (` + sqlQuote(oneState) + `)`,
	}
	for _, s := range stmts {
		if _, err := db.ExecContext(ctx, s); err != nil {
			return fmt.Errorf("load tables: %w", err)
		}
	}
	return nil
}

// oneState is the single row of table One, which single-call queries
// join with WebCount.
const oneState = "Florida"

// engineDB opens a database over in-process replay engines with the
// benchmark's injected latency, metered by m.
func engineDB(ctx context.Context, dir string, cfg core.Config, r *replay, seed int64, m *engineMeter) (*core.DB, error) {
	cfg.Dir = dir
	db, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	av, g := r.delayed(seed)
	db.RegisterEngine(metered(av, m), "AV")
	db.RegisterEngine(metered(g, m), "G")
	if err := loadPaperTables(ctx, db); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// probeDB is a quiet copy of a workload's database used only by the
// traced run's parse / plan / rewrite probes, for workloads whose own
// database sits behind a server and runs queries concurrently.
func probeDB(ctx context.Context, cfg config, r *replay) (*core.DB, error) {
	return engineDB(ctx, filepath.Join(cfg.workDir, "probe"), core.Config{}, r, cfg.seed, &engineMeter{})
}
