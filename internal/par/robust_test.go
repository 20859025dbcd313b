package par

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers overrides the worker count for one test (the CI box may be
// single-core, where the spawn budget is empty and every region runs
// serially) and verifies the budget is clean on entry.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(prev) })
	if InUse() != 0 {
		t.Fatalf("budget dirty at test start: %d tokens in use", InUse())
	}
}

// drainBudget claims the entire spawn budget and returns a release function;
// tests use it to force the exhausted-budget paths.
func drainBudget(t *testing.T) func() {
	t.Helper()
	n := TryAcquire(Workers() * 2)
	if n != Workers()-1 {
		Release(n)
		t.Fatalf("drained %d tokens, want the full budget %d", n, Workers()-1)
	}
	return func() { Release(n) }
}

func TestAcquireCtxImmediate(t *testing.T) {
	withWorkers(t, 4)
	n, err := AcquireCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("AcquireCtx returned %d workers on an idle budget, want >= 1", n)
	}
	Release(n)
	if got := InUse(); got != 0 {
		t.Fatalf("%d tokens leaked", got)
	}
}

func TestAcquireCtxSerialBudgetDoesNotBlock(t *testing.T) {
	withWorkers(t, 1)
	// Workers()-1 = 0 tokens: waiting could never succeed, so AcquireCtx
	// must degrade to serial (0, nil) instead of parking forever.
	n, err := AcquireCtx(context.Background(), 4)
	if n != 0 || err != nil {
		t.Fatalf("got (%d, %v), want (0, nil) on a capacityless budget", n, err)
	}
}

func TestAcquireCtxCanceledWhileExhausted(t *testing.T) {
	withWorkers(t, 4)
	release := drainBudget(t)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		n, err := AcquireCtx(ctx, 1)
		if n != 0 {
			Release(n)
			t.Error("AcquireCtx granted tokens from an exhausted budget")
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the acquirer park on the pulse
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireCtx did not observe cancellation")
	}
}

func TestAcquireCtxWokenByRelease(t *testing.T) {
	withWorkers(t, 4)
	release := drainBudget(t)
	type grant struct {
		n   int
		err error
	}
	done := make(chan grant, 1)
	go func() {
		n, err := AcquireCtx(context.Background(), 1)
		done <- grant{n, err}
	}()
	time.Sleep(10 * time.Millisecond)
	release() // frees the budget; the pulse must wake the waiter
	select {
	case g := <-done:
		if g.err != nil || g.n != 1 {
			t.Fatalf("got (%d, %v), want (1, nil)", g.n, g.err)
		}
		Release(g.n)
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireCtx missed the release pulse")
	}
	if got := InUse(); got != 0 {
		t.Fatalf("%d tokens leaked", got)
	}
}

// A panic in a For worker must reach the caller as a *PanicError carrying
// the panic-site stack, with every spawn token released — never a goroutine
// leak or a deadlock.
func TestForPanicPropagatesAndRestoresBudget(t *testing.T) {
	withWorkers(t, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate out of For")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if pe.Value != "worker boom" {
			t.Fatalf("panic value %v, want worker boom", pe.Value)
		}
		if !bytes.Contains(pe.Stack, []byte("TestForPanicPropagatesAndRestoresBudget")) {
			t.Fatal("stack was not captured at the panic site")
		}
		if got := InUse(); got != 0 {
			t.Fatalf("%d spawn tokens leaked across the panic", got)
		}
	}()
	For(1024, 1, func(lo, hi int) {
		if lo <= 512 && 512 < hi { // panic in whichever chunk holds index 512
			panic("worker boom")
		}
	})
}

func TestDoPanicRestoresBudget(t *testing.T) {
	withWorkers(t, 4)
	var ran atomic.Int32
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate out of Do")
		}
		if got := InUse(); got != 0 {
			t.Fatalf("%d spawn tokens leaked across the panic", got)
		}
	}()
	Do(
		func() { ran.Add(1) },
		func() { panic("task boom") },
		func() { ran.Add(1) },
	)
}

// A worker that panics after its caller has lent its slot and blocked in the
// join must still hand the token back: the panic surfaces at the join and
// the budget ends clean, for a nested region too.
func TestPanicAfterJoinerLendsRestoresBudget(t *testing.T) {
	withWorkers(t, 2)
	for _, nested := range []bool{false, true} {
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok || pe.Value != "late boom" {
					t.Fatalf("nested=%v: recovered %v, want *PanicError late boom", nested, pe)
				}
				if got := InUse(); got != 0 {
					t.Fatalf("nested=%v: %d spawn tokens leaked across the panic", nested, got)
				}
			}()
			inlineDone := make(chan struct{})
			Do(
				func() {
					<-inlineDone
					if nested {
						Do(func() {}, func() { panic("late boom") })
					}
					panic("late boom")
				},
				func() { close(inlineDone) },
			)
		}()
	}
}

// A panicking RowSweep worker must keep crossing the row barriers so its
// peers never deadlock waiting for it, and the panic must still propagate
// with the budget intact. On a single-core box RowSweep clamps to the serial
// path, where the panic surfaces bare; both shapes are acceptable — what is
// not is a hang or a leaked token.
func TestRowSweepPanicNoBarrierDeadlock(t *testing.T) {
	withWorkers(t, 4)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		RowSweep(64, func(int) int { return 8192 }, func(row, lo, hi int) {
			if row == 3 && lo == 0 {
				panic("row boom")
			}
		})
	}()
	select {
	case r := <-done:
		val := r
		if pe, ok := r.(*PanicError); ok {
			val = pe.Value
		}
		if val != "row boom" {
			t.Fatalf("recovered %v (%T), want row boom", r, r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RowSweep deadlocked on a panicking worker")
	}
	if got := InUse(); got != 0 {
		t.Fatalf("%d spawn tokens leaked across the panic", got)
	}
}

func TestBulkReserveKeepsInteractiveHeadroom(t *testing.T) {
	withWorkers(t, 4)
	prevReserve := SetBulkReserve(1)
	defer SetBulkReserve(prevReserve)

	bulk := TryAcquireBulk(16)
	if bulk != Workers()-2 { // budget Workers()-1 minus the reserved token
		Release(bulk)
		t.Fatalf("bulk acquired %d of a %d-token budget with reserve 1, want %d", bulk, Workers()-1, Workers()-2)
	}
	// The reserved token is still there for interactive work.
	inter := TryAcquire(16)
	if inter != 1 {
		Release(bulk + inter)
		t.Fatalf("interactive acquired %d, want the 1 reserved token", inter)
	}
	Release(bulk + inter)
	if got := InUse(); got != 0 {
		t.Fatalf("%d tokens leaked", got)
	}
}
