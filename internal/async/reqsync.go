package async

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/types"
)

// ReqSync is the request-synchronizer operator of Section 4.1: it buffers
// tuples containing placeholders for pending pump calls, and as calls
// complete it patches the placeholders with real values (one result row),
// cancels the tuple (zero rows), or expands it into n copies (n rows —
// Section 4.3), copying any still-pending placeholder references into the
// copies (Section 4.4). Tuples with no placeholders pass through.
//
// By default Open drains the child completely before any tuple is
// released ("we choose this full-buffering implementation for the sake of
// simplicity"); with Streaming set, complete tuples are released as soon
// as they are available, the materialization alternative the paper
// mentions for very large joins.
type ReqSync struct {
	Child exec.Operator
	Pump  *Pump
	// A is the set of attributes this operator fills in (ReqSync_i.A of
	// Section 4.5.2). It drives percolation clash checks and is unioned
	// when ReqSyncs are consolidated; execution itself discovers
	// placeholders dynamically.
	A map[schema.AttrID]bool
	// Streaming releases completed tuples before the child is exhausted.
	Streaming bool

	childDone bool
	ready     []types.Tuple
	waiting   map[types.CallID][]*bufTuple
	npending  int
	opened    bool

	// Trace-profile counters (SpanExtras), accumulated across every Open
	// of this instance — a dependent join above re-opens its inner side
	// once per outer binding, and the profile should cover them all.
	nSettled  int64 // calls settled (result consumed from the pump)
	nPatched  int64 // tuples completed by patching in a result row
	nExpanded int64 // extra tuple copies generated (multi-row results, §4.3)
	nCanceled int64 // tuples canceled (zero-row results or degrade-drop)
	nDegraded int64 // failed calls absorbed by a degradation policy
}

type bufTuple struct {
	t        types.Tuple
	canceled bool
}

// NewReqSync builds a ReqSync over child filling the attribute set a.
func NewReqSync(child exec.Operator, pump *Pump, a map[schema.AttrID]bool) *ReqSync {
	return &ReqSync{Child: child, Pump: pump, A: a}
}

// Schema implements exec.Operator.
func (r *ReqSync) Schema() *schema.Schema { return r.Child.Schema() }

// Open implements exec.Operator. In full-buffering mode it drains the
// child — thereby registering every external call below it with the pump —
// before the first Next returns.
func (r *ReqSync) Open(ctx *exec.Context) error {
	if err := r.Child.Open(ctx); err != nil {
		return err
	}
	r.childDone = false
	r.ready = nil
	r.waiting = make(map[types.CallID][]*bufTuple)
	r.npending = 0
	r.opened = true
	if r.Streaming {
		return nil
	}
	return r.drain(ctx)
}

// drain pulls the child to exhaustion, buffering incomplete tuples. The
// pull is batch-at-a-time: a batch-binding dependent join below registers
// every call of an outer batch with the pump per round, so the request
// queue deepens by whole batches rather than single calls.
func (r *ReqSync) drain(ctx *exec.Context) error {
	for {
		b, ok, err := exec.NextBatchFrom(ctx, r.Child, 0)
		if err != nil {
			return err
		}
		if !ok {
			r.childDone = true
			return nil
		}
		for _, t := range b {
			r.admit(t)
		}
	}
}

// admit routes a child tuple to the ready queue or the waiting table.
func (r *ReqSync) admit(t types.Tuple) {
	if !t.HasPlaceholder() {
		r.ready = append(r.ready, t)
		return
	}
	bt := &bufTuple{t: t}
	r.register(bt)
}

// register indexes a buffered tuple under every pending call it references.
func (r *ReqSync) register(bt *bufTuple) {
	for _, id := range bt.t.PendingCalls() {
		if len(r.waiting[id]) == 0 {
			r.npending++
		}
		r.waiting[id] = append(r.waiting[id], bt)
	}
}

// patch replaces every placeholder of call id in t with the corresponding
// field of row.
func patch(t types.Tuple, id types.CallID, row types.Tuple) types.Tuple {
	for i, v := range t {
		if v.IsPlaceholder() && v.Call() == id {
			if v.Field() < len(row) {
				t[i] = row[v.Field()]
			} else {
				t[i] = types.Null()
			}
		}
	}
	return t
}

// settle processes one completed call: Section 4.3's cancellation /
// completion / generation algorithm, with Section 4.4's rule that copies
// proliferate references to other pending calls.
//
// A failed call (the pump's retries exhausted, or a permanent engine error)
// is handled per the query's degradation policy: fail the query, cancel the
// waiting tuples as if the call returned no rows, or release them with the
// call's attributes patched to NULL.
func (r *ReqSync) settle(ctx *exec.Context, id types.CallID, res CallResult) error {
	buffered := r.waiting[id]
	delete(r.waiting, id)
	r.npending--
	r.nSettled++
	if res.Err != nil {
		switch ctx.Degrade {
		case exec.DegradeDrop:
			ctx.Stats.DegradedCalls++
			r.nDegraded++
			for _, bt := range buffered {
				if !bt.canceled {
					bt.canceled = true
					r.nCanceled++
				}
			}
			return nil
		case exec.DegradePartial:
			ctx.Stats.DegradedCalls++
			r.nDegraded++
			for _, bt := range buffered {
				if bt.canceled {
					continue
				}
				// patch with an empty row: every referenced field is beyond
				// the row's end, so each placeholder becomes NULL.
				patch(bt.t, id, nil)
				r.nPatched++
				if !bt.t.HasPlaceholder() {
					r.ready = append(r.ready, bt.t)
				}
			}
			return nil
		default:
			return fmt.Errorf("external call failed: %w", res.Err)
		}
	}
	for _, bt := range buffered {
		if bt.canceled {
			continue
		}
		switch len(res.Rows) {
		case 0:
			// Case 1: the call returned no rows — cancel the tuple.
			bt.canceled = true
			r.nCanceled++
		default:
			// Case 3 first: n-1 additional copies, each patched with one of
			// the extra result rows. Copies are cloned before the original
			// is patched so they retain this call's placeholders, then
			// re-registered under any calls still pending (Section 4.4).
			for _, row := range res.Rows[1:] {
				c := patch(bt.t.Clone(), id, row)
				r.nExpanded++
				if c.HasPlaceholder() {
					r.register(&bufTuple{t: c})
				} else {
					r.ready = append(r.ready, c)
				}
			}
			// Case 2: patch the original in place with the first row.
			patch(bt.t, id, res.Rows[0])
			r.nPatched++
			if !bt.t.HasPlaceholder() {
				r.ready = append(r.ready, bt.t)
			}
		}
	}
	return nil
}

// pendingIDs snapshots the calls currently awaited.
func (r *ReqSync) pendingIDs() map[types.CallID]bool {
	ids := make(map[types.CallID]bool, len(r.waiting))
	for id := range r.waiting {
		ids[id] = true
	}
	return ids
}

// Next implements exec.Operator: return a completed tuple, blocking on the
// pump when none is ready ("if ReqSync has no completed tuples then it
// must wait for the next signal from ReqPump").
func (r *ReqSync) Next(ctx *exec.Context) (types.Tuple, bool, error) {
	if !r.opened {
		return nil, false, fmt.Errorf("ReqSync: Next before Open")
	}
	for {
		if len(r.ready) > 0 {
			t := r.ready[0]
			r.ready = r.ready[1:]
			return t, true, nil
		}
		// Streaming mode: keep pulling the child; complete tuples flow
		// through immediately, incomplete ones are buffered.
		if r.Streaming && !r.childDone {
			t, ok, err := r.Child.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if ok {
				r.admit(t)
				continue
			}
			r.childDone = true
		}
		if len(r.waiting) == 0 {
			if !r.childDone {
				continue
			}
			return nil, false, nil
		}
		// Consume completed calls without blocking where possible, then
		// block for the next completion. The execution context bounds the
		// wait: a query deadline wakes the ReqSync with the ctx error, and
		// Close then disowns the still-pending calls.
		id, err := r.Pump.AwaitAnyCtx(ctx.Ctx, r.pendingIDs())
		if err != nil {
			return nil, false, err
		}
		res, ok := r.Pump.Take(id)
		if !ok {
			return nil, false, fmt.Errorf("ReqSync: call %d signaled done but result missing", id)
		}
		if err := r.settle(ctx, id, res); err != nil {
			return nil, false, err
		}
	}
}

// NextBatch implements exec.BatchOperator: completed tuples are released
// in windows of the ready queue; in streaming mode whole child batches
// are admitted before any pump wait, so even without full buffering the
// pump's queue depth grows batch-at-a-time.
func (r *ReqSync) NextBatch(ctx *exec.Context, max int) (exec.Batch, bool, error) {
	if !r.opened {
		return nil, false, fmt.Errorf("ReqSync: NextBatch before Open")
	}
	for {
		if len(r.ready) > 0 {
			n := len(r.ready)
			if n > max {
				n = max
			}
			b := exec.Batch(r.ready[:n:n])
			r.ready = r.ready[n:]
			return b, true, nil
		}
		if r.Streaming && !r.childDone {
			cb, ok, err := exec.NextBatchFrom(ctx, r.Child, max)
			if err != nil {
				return nil, false, err
			}
			if ok {
				for _, t := range cb {
					r.admit(t)
				}
				continue
			}
			r.childDone = true
		}
		if len(r.waiting) == 0 {
			if !r.childDone {
				continue
			}
			return nil, false, nil
		}
		id, err := r.Pump.AwaitAnyCtx(ctx.Ctx, r.pendingIDs())
		if err != nil {
			return nil, false, err
		}
		res, ok := r.Pump.Take(id)
		if !ok {
			return nil, false, fmt.Errorf("ReqSync: call %d signaled done but result missing", id)
		}
		if err := r.settle(ctx, id, res); err != nil {
			return nil, false, err
		}
	}
}

// Close implements exec.Operator: pending calls are disowned (the pump
// drops their results when they complete).
func (r *ReqSync) Close() error {
	for id := range r.waiting {
		r.Pump.Discard(id)
	}
	r.waiting = nil
	r.ready = nil
	r.opened = false
	return r.Child.Close()
}

// Children implements exec.Operator.
func (r *ReqSync) Children() []exec.Operator { return []exec.Operator{r.Child} }

// SetChild implements exec.Operator.
func (r *ReqSync) SetChild(i int, op exec.Operator) {
	if i != 0 {
		panic("ReqSync has a single child")
	}
	r.Child = op
}

// SpanExtras implements exec.SpanExtras: the Section 4.3 settlement
// profile — calls settled, tuples patched/expanded/canceled, and failed
// calls absorbed by a degradation policy.
func (r *ReqSync) SpanExtras() map[string]int64 {
	return map[string]int64{
		"settled":  r.nSettled,
		"patched":  r.nPatched,
		"expanded": r.nExpanded,
		"canceled": r.nCanceled,
		"degraded": r.nDegraded,
	}
}

// Name implements exec.Operator.
func (r *ReqSync) Name() string { return "ReqSync" }

// Describe implements exec.Operator.
func (r *ReqSync) Describe() string {
	if r.Streaming {
		return "streaming"
	}
	return ""
}
