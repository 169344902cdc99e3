package async

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/types"
)

// blockingCall returns a call fn that blocks until release is closed, plus
// the release func.
func blockingCall() (fn func() ([]types.Tuple, error), release func()) {
	ch := make(chan struct{})
	return func() ([]types.Tuple, error) {
		<-ch
		return nil, nil
	}, func() { close(ch) }
}

// TestRegisterCtxDropsExpiredQueuedCall: a call whose context expires while
// it waits in the queue must complete with the context's error without ever
// consuming an execution slot, and the pump must drain fully.
func TestRegisterCtxDropsExpiredQueuedCall(t *testing.T) {
	p := NewPump(1, 1, nil)
	blocker, release := blockingCall()
	first := p.RegisterCtx(context.Background(), "d", "k1", blocker)

	ctx, cancel := context.WithCancel(context.Background())
	var ran bool
	second := p.RegisterCtx(ctx, "d", "k2", func() ([]types.Tuple, error) {
		ran = true
		return nil, nil
	})
	cancel()
	release() // first completes; dispatch must now drop the canceled second

	id, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{second: true})
	if err != nil || id != second {
		t.Fatalf("await second: %v %v", id, err)
	}
	res, ok := p.Take(second)
	if !ok || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("canceled queued call: got %+v, want context.Canceled", res)
	}
	if ran {
		t.Error("canceled queued call must not execute")
	}
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{first: true}); err != nil {
		t.Fatal(err)
	}
	p.Take(first)
	waitDrained(t, p)
	if st := p.Stats(); st.Canceled != 1 || st.Started != 1 {
		t.Errorf("stats = %+v, want Canceled=1 Started=1", st)
	}
}

// TestRegisterCtxAlreadyExpired: registering with a dead context completes
// immediately with the context error, never queueing anything.
func TestRegisterCtxAlreadyExpired(t *testing.T) {
	p := NewPump(4, 4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	id := p.RegisterCtx(ctx, "d", "k", func() ([]types.Tuple, error) {
		t.Error("must not run")
		return nil, nil
	})
	res, ok := p.Take(id)
	if !ok || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("got %+v ok=%v, want immediate context.Canceled", res, ok)
	}
}

// TestAwaitAnyCtxDeadline: a waiter blocked on a slow call wakes promptly
// when its context expires, without waiting for the call.
func TestAwaitAnyCtxDeadline(t *testing.T) {
	p := NewPump(1, 1, nil)
	blocker, release := blockingCall()
	defer release()
	id := p.RegisterCtx(context.Background(), "d", "k", blocker)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.AwaitAnyCtx(ctx, map[types.CallID]bool{id: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("AwaitAnyCtx did not wake at the deadline")
	}
}

// TestCloseSettlesQueuedAndWakesWaiters: Close while calls are queued and
// running must fail queued calls with ErrPumpClosed, wake blocked waiters
// with the same sentinel, and let in-flight calls finish without panicking.
func TestCloseSettlesQueuedAndWakesWaiters(t *testing.T) {
	p := NewPump(1, 1, nil)
	blocker, release := blockingCall()
	running := p.RegisterCtx(context.Background(), "d", "k1", blocker)
	queued := p.RegisterCtx(context.Background(), "d", "k2", func() ([]types.Tuple, error) {
		t.Error("queued call must not start after Close")
		return nil, nil
	})

	// A waiter blocked on the running call must wake with the sentinel.
	woke := make(chan error, 1)
	go func() {
		_, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{running: true})
		woke <- err
	}()
	time.Sleep(10 * time.Millisecond)

	p.Close()
	p.Close() // idempotent

	select {
	case err := <-woke:
		if !errors.Is(err, ErrPumpClosed) {
			t.Fatalf("waiter woke with %v, want ErrPumpClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still blocked after Close")
	}

	res, ok := p.Take(queued)
	if !ok || !errors.Is(res.Err, ErrPumpClosed) {
		t.Fatalf("queued call after Close: got %+v ok=%v, want ErrPumpClosed", res, ok)
	}

	// Registering on a closed pump errors cleanly instead of hanging.
	late := p.RegisterCtx(context.Background(), "d", "k3", func() ([]types.Tuple, error) { return nil, nil })
	res, ok = p.Take(late)
	if !ok || !errors.Is(res.Err, ErrPumpClosed) {
		t.Fatalf("register after Close: got %+v ok=%v, want ErrPumpClosed", res, ok)
	}

	// The in-flight call may still finish; it must not panic or dispatch.
	release()
	waitDrained(t, p)
}

// TestDiscardQueuedKeepsCoalescedSiblings: discarding one owner of a
// coalesced in-flight call must not cancel the execution the other owner is
// waiting for.
func TestDiscardQueuedKeepsCoalescedSiblings(t *testing.T) {
	p := NewPump(1, 1, &countingCache{m: make(map[string][]types.Tuple)})
	blocker, release := blockingCall()
	first := p.RegisterCtx(context.Background(), "d", "k1", blocker)

	// Two registrations for the same key: the second coalesces onto the
	// queued first... here both target "k2" which is queued behind k1.
	a := p.RegisterCtx(context.Background(), "d", "k2", func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(7)}}, nil
	})
	b := p.RegisterCtx(context.Background(), "d", "k2", func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(7)}}, nil
	})

	p.Discard(a) // a abandons; b still wants the call
	release()

	id, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{b: true})
	if err != nil || id != b {
		t.Fatalf("await b: %v %v", id, err)
	}
	res, _ := p.Take(b)
	if res.Err != nil || len(res.Rows) != 1 || res.Rows[0][0].I() != 7 {
		t.Fatalf("coalesced survivor got %+v", res)
	}
	if _, ok := p.Take(a); ok {
		t.Error("discarded id must not park a result")
	}
	p.Take(first)
	waitDrained(t, p)
}

func waitDrained(t *testing.T, p *Pump) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		running, queued := p.Active()
		if running == 0 && queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump did not drain: %d running, %d queued", running, queued)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
