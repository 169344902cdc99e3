// Package core is the public face of the WSQ/DSQ reproduction: a small
// relational database (the Redbase substrate) extended with the paper's
// two WSQ virtual tables and asynchronous iteration.
//
// A DB owns a catalog of stored tables, a registry of search engines, the
// global request pump, and an optional result cache. SQL statements are
// parsed, planned (FROM-order joins, dependent joins over virtual table
// scans), optionally rewritten for asynchronous iteration, and executed by
// the iterator engine.
//
// Typical use:
//
//	db, _ := core.Open(core.Config{Dir: dir, Async: true})
//	corpus := websim.Default()
//	db.RegisterEngine(search.NewDelayed(websim.NewAltaVista(corpus), search.BenchLatency(), 1), "AV")
//	db.Exec(`CREATE TABLE States (Name VARCHAR, Population INT, Capital VARCHAR)`)
//	res, _ := db.Exec(`SELECT Name, Count FROM States, WebCount
//	                   WHERE Name = T1 ORDER BY Count DESC`)
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/async"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sqlparse"
	"repro/internal/types"
	"repro/internal/vtab"
)

// Config controls a DB instance.
type Config struct {
	// Dir is the database directory (catalog + heap files).
	Dir string
	// Async enables asynchronous iteration for SELECT execution. It can be
	// toggled per-DB at runtime with SetAsync (the experiments compare both
	// modes over the same data).
	Async bool
	// MaxConcurrentCalls bounds total in-flight external calls
	// (0 = async.DefaultMaxTotal).
	MaxConcurrentCalls int
	// MaxCallsPerDest bounds in-flight calls per search engine
	// (0 = async.DefaultMaxPerDest).
	MaxCallsPerDest int
	// CacheSize is the LRU capacity for external call results; 0 disables
	// caching.
	CacheSize int
	// DefaultRankLimit guards WebPages scans without a Rank predicate
	// (0 = the paper's default of 20).
	DefaultRankLimit int
	// PoolFrames is the buffer-pool size per heap file (0 = default).
	PoolFrames int
	// StreamingReqSync makes ReqSync release completed tuples before its
	// child is exhausted (ablation of the paper's full-buffering choice).
	StreamingReqSync bool
	// Retry is the request pump's fault-tolerance policy (retries with
	// backoff, per-attempt deadlines, hedging). The zero value executes
	// every call exactly once.
	Retry async.RetryPolicy
	// Degrade is the default failed-call degradation policy for queries
	// that do not choose one (fail / drop / partial).
	Degrade exec.DegradePolicy
	// Registry receives the DB's metrics (pump slot-wait and per-dest
	// latency histograms, engine request histograms, ...). When nil the
	// DB creates a private one, so metrics are always recorded; a server
	// passes its own registry to expose them on /metrics.
	Registry *obs.Registry
}

// DB is an open WSQ database. It is safe for concurrent use: any number of
// SELECTs may execute at once (sharing the catalog, buffer pools, result
// cache, and the one global request pump), while DDL and INSERT statements
// take the database exclusively.
type DB struct {
	cfg     Config
	cat     *catalog.Catalog
	engines *search.Registry
	vtabs   *vtab.Registry
	cache   *cache.Cache
	pump    *async.Pump
	planner *plan.Planner
	reg     *obs.Registry

	// async toggles asynchronous iteration; atomic so SetAsync can race
	// with concurrent query planning without a lock.
	async atomic.Bool
	// mu serializes writers (CREATE/DROP/INSERT mutate catalog state and
	// heap pages) against concurrently running readers (SELECT/UNION).
	mu sync.RWMutex
}

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    []types.Tuple
	Stats   exec.Stats
	// Trace is the query's per-operator span tree when tracing was
	// requested (QueryOptions.Trace or EXPLAIN ANALYZE); nil otherwise.
	Trace *obs.Span
}

// Open opens (creating if necessary) a database.
func Open(cfg Config) (*DB, error) {
	cat, err := catalog.Open(cfg.Dir, cfg.PoolFrames)
	if err != nil {
		return nil, err
	}
	engines := search.NewRegistry()
	vt := vtab.NewRegistry(engines)
	// A nil *cache.Cache must stay a nil interface: wrapping it would make
	// the pump believe caching (and thus duplicate-call coalescing) is on.
	var c *cache.Cache
	var rc exec.ResultCache
	if cfg.CacheSize > 0 {
		c = cache.New(cfg.CacheSize)
		rc = c
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	db := &DB{
		cfg:     cfg,
		cat:     cat,
		engines: engines,
		vtabs:   vt,
		cache:   c,
		pump:    async.NewPump(cfg.MaxConcurrentCalls, cfg.MaxCallsPerDest, rc),
		reg:     reg,
	}
	db.pump.SetRetryPolicy(cfg.Retry)
	db.pump.Observe(reg)
	c.Observe(reg) // nil-safe: a disabled cache registers nothing
	db.async.Store(cfg.Async)
	db.planner = plan.New(cat, vt)
	db.planner.Cache = rc
	if cfg.DefaultRankLimit > 0 {
		db.planner.DefaultRankLimit = cfg.DefaultRankLimit
	}
	return db, nil
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.pump.Close()
	return db.cat.Close()
}

// RegisterEngine makes a search engine available to the virtual tables
// under its name plus the given aliases (e.g. "AV" for "altavista").
// Engines that are observable (the Delayed/Flaky simulation wrappers)
// are attached to the DB's metrics registry.
func (db *DB) RegisterEngine(e search.Engine, aliases ...string) {
	db.engines.Register(e, aliases...)
	if o, ok := e.(obs.Observable); ok {
		o.Observe(db.reg)
	}
}

// Metrics exposes the DB's metrics registry (pump, engines, and anything
// else the embedding process registers on it).
func (db *DB) Metrics() *obs.Registry { return db.reg }

// Engines exposes the engine registry.
func (db *DB) Engines() *search.Registry { return db.engines }

// Catalog exposes the stored-table catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pump exposes the global request pump (for stats in experiments).
func (db *DB) Pump() *async.Pump { return db.pump }

// Cache exposes the result cache (nil when disabled).
func (db *DB) Cache() *cache.Cache { return db.cache }

// SetAsync toggles asynchronous iteration for subsequent SELECTs.
func (db *DB) SetAsync(on bool) { db.async.Store(on) }

// Async reports whether asynchronous iteration is enabled.
func (db *DB) Async() bool { return db.async.Load() }

// QueryOptions carries per-statement execution choices.
type QueryOptions struct {
	// Degrade overrides the DB's default failed-call degradation policy
	// when non-nil.
	Degrade *exec.DegradePolicy
	// Trace instruments the plan so Result.Trace carries the query's
	// per-operator span tree (timings, cardinalities, patch/expansion
	// counts). Costs two time.Now calls per operator invocation.
	Trace bool
	// BatchSize overrides the executor's vectorized batch size for this
	// statement (0 = exec.DefaultBatchSize). The golden e2e suite and the
	// plan-equivalence fuzzer sweep it to pin batch-boundary semantics.
	BatchSize int
}

// ExecContext parses and executes one SQL statement under ctx: deadline
// expiry or cancellation aborts execution, dropping any external calls the
// statement still has queued in the request pump.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return db.ExecContextOpts(ctx, sql, QueryOptions{})
}

// ExecContextOpts is ExecContext with per-statement options. A nil ctx
// means no deadline.
func (db *DB) ExecContextOpts(ctx context.Context, sql string, opts QueryOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rest, ok := stripExplainAnalyze(sql); ok {
		return db.explainAnalyze(ctx, rest, opts)
	}
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *sqlparse.CreateTable:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execCreate(s)
	case *sqlparse.DropTable:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.cat.Drop(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparse.Insert:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execInsert(s)
	case *sqlparse.Select:
		return db.runQueryable(ctx, s, opts)
	case *sqlparse.Union:
		return db.runQueryable(ctx, s, opts)
	default:
		return nil, fmt.Errorf("unsupported statement %T", st)
	}
}

// QueryContext executes a SELECT (or UNION of SELECTs) under ctx.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return db.QueryContextOpts(ctx, sql, QueryOptions{})
}

// QueryContextOpts is QueryContext with per-statement options (e.g. the
// degradation policy wsqd threads through from the client request). A
// nil ctx means no deadline.
func (db *DB) QueryContextOpts(ctx context.Context, sql string, opts QueryOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rest, ok := stripExplainAnalyze(sql); ok {
		return db.explainAnalyze(ctx, rest, opts)
	}
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch st.(type) {
	case *sqlparse.Select, *sqlparse.Union:
		return db.runQueryable(ctx, st, opts)
	default:
		return nil, fmt.Errorf("expected a query, got %T", st)
	}
}

func (db *DB) execCreate(s *sqlparse.CreateTable) (*Result, error) {
	if db.vtabs.IsVirtual(s.Name) {
		return nil, fmt.Errorf("%s is a reserved virtual table name", s.Name)
	}
	cols := make([]catalog.ColumnDef, len(s.Columns))
	for i, c := range s.Columns {
		ty, err := schema.ParseType(c.Type)
		if err != nil {
			return nil, err
		}
		cols[i] = catalog.ColumnDef{Name: c.Name, Type: ty}
	}
	if _, err := db.cat.Create(s.Name, cols); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) execInsert(s *sqlparse.Insert) (*Result, error) {
	t, ok := db.cat.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %s", s.Table)
	}
	for _, row := range s.Rows {
		if _, err := t.Insert(types.Tuple(row)); err != nil {
			return nil, err
		}
	}
	return &Result{Stats: exec.Stats{TuplesOut: int64(len(s.Rows))}}, nil
}

// Plan lowers a SELECT to an operator tree, applying the asynchronous
// iteration rewrite when enabled.
func (db *DB) Plan(sel *sqlparse.Select) (exec.Operator, error) {
	return db.planStatement(sel)
}

// planStatement lowers a SELECT or UNION, applying the asynchronous
// iteration rewrite when enabled.
func (db *DB) planStatement(st sqlparse.Statement) (exec.Operator, error) {
	var op exec.Operator
	var err error
	switch s := st.(type) {
	case *sqlparse.Select:
		op, err = db.planner.PlanSelect(s)
	case *sqlparse.Union:
		op, err = db.planner.PlanUnion(s)
	default:
		return nil, fmt.Errorf("not a query: %T", st)
	}
	if err != nil {
		return nil, err
	}
	if db.async.Load() {
		op = async.Rewrite(op, db.pump)
		if db.cfg.StreamingReqSync {
			setStreaming(op)
		}
	}
	return op, nil
}

func setStreaming(op exec.Operator) {
	if rs, ok := op.(*async.ReqSync); ok {
		rs.Streaming = true
	}
	for _, c := range op.Children() {
		setStreaming(c)
	}
}

func (db *DB) runQueryable(goCtx context.Context, st sqlparse.Statement, opts QueryOptions) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	op, err := db.planStatement(st)
	if err != nil {
		return nil, err
	}
	var span *obs.Span
	if opts.Trace {
		op, span = exec.Instrument(op)
	}
	ctx := exec.NewContextWith(goCtx)
	ctx.Degrade = db.cfg.Degrade
	if opts.Degrade != nil {
		ctx.Degrade = *opts.Degrade
	}
	ctx.BatchSize = opts.BatchSize
	ctx.RetryCall = db.pump.CallWithRetry
	ctx.Trace = span
	rows, err := exec.Run(ctx, op)
	if err != nil {
		return nil, err
	}
	cols := make([]string, op.Schema().Len())
	for i, c := range op.Schema().Cols {
		cols[i] = c.Name
	}
	return &Result{Columns: cols, Rows: rows, Stats: ctx.Stats, Trace: span}, nil
}

// Explain returns the textual plan for a SELECT, in both modes when async
// is enabled.
func (db *DB) Explain(sql string) (string, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return "", err
	}
	op, err := db.planner.PlanSelect(sel)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("-- input plan --\n")
	b.WriteString(exec.Explain(op))
	if db.async.Load() {
		op = async.Rewrite(op, db.pump)
		b.WriteString("-- asynchronous iteration plan --\n")
		b.WriteString(exec.Explain(op))
	}
	return b.String(), nil
}

// ExplainCost returns the plan for a SELECT annotated with the cost
// estimator's predictions (expected rows, external calls, and sequential
// vs asynchronous latency under the given model).
func (db *DB) ExplainCost(sql string, model plan.CostModel) (string, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return "", err
	}
	op, err := db.planner.PlanSelect(sel)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(exec.Explain(op))
	est := plan.EstimatePlan(op, model)
	fmt.Fprintf(&b, "estimate: %s\n", est)
	return b.String(), nil
}

// Estimate runs the cost estimator over a SELECT's plan.
func (db *DB) Estimate(sql string, model plan.CostModel) (plan.Estimate, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return plan.Estimate{}, err
	}
	op, err := db.planner.PlanSelect(sel)
	if err != nil {
		return plan.Estimate{}, err
	}
	return plan.EstimatePlan(op, model), nil
}

// Format renders a result as an aligned text table.
func (r *Result) Format() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("ok (%d rows affected)\n", r.Stats.TuplesOut)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			if v.Kind == types.KindFloat {
				s = fmt.Sprintf("%.4g", v.F())
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for ci, s := range row {
			if ci > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[ci], s)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}
