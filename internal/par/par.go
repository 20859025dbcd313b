// Package par provides the small fork-join runtime used by all parallel
// algorithms in this module.
//
// The paper's C++ implementation relies on OpenMP with a greedy scheduler;
// here goroutines play the role of OpenMP tasks. The package supports an
// explicit worker-count override so that the Table 5 experiment (runtime as a
// function of the number of cores p) can be reproduced without restarting the
// process.
//
// Every fork draws a token from one process-wide spawn budget of Workers()-1
// tokens, and a token is held only while the goroutine it entitles runs: a
// For or Do worker returns its token when it exits, not when its siblings
// join, and a goroutine blocked in a join lends its own slot to the budget
// until the join completes. A Do branch that finds no token does not give up
// on forking: it waits as an offer, and the next token any worker releases
// starts it, until its caller gets to it first and runs it inline. A deep
// recursion that forks a short branch beside a long one therefore gets the
// short branch's token back for the long branch's own forks, and an idle
// core picks up pending branches from anywhere in the recursion, which is
// what makes the schedule greedy. At most Workers() goroutines make progress
// at once however deeply regions nest; the goroutines waiting in joins do
// not count.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/nlstencil/amop/internal/faultinject"
)

// PanicError is a panic captured in a worker goroutine and re-raised on the
// goroutine that forked it. Without this translation a panic in any For/Do/
// RowSweep worker would crash the whole process (no other goroutine can
// recover it); with it, fork-join regions have ordinary panic semantics —
// the panic surfaces at the join point, where the batch engine's and the
// serving layer's recover handlers can isolate the fault to one contract.
// Value is the original panic value and Stack the panicking worker's stack,
// captured at the panic site so quarantine records stay diagnosable.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panic: %v", e.Value)
}

// capture runs f, diverting a panic into pe (first panic wins) instead of
// letting it escape the goroutine. An already-wrapped *PanicError re-raised
// by a nested fork-join region passes through unwrapped, so arbitrarily deep
// nesting surfaces the original site's stack, not a tower of wrappers.
func capture(pe *atomic.Pointer[PanicError], f func()) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*PanicError)
			if !ok {
				p = &PanicError{Value: r, Stack: debug.Stack()}
			}
			pe.CompareAndSwap(nil, p)
		}
	}()
	f()
}

// rethrow re-raises a panic captured by the workers of a fork-join region,
// after the join (budget tokens released, all workers stopped).
func rethrow(pe *atomic.Pointer[PanicError]) {
	if p := pe.Load(); p != nil {
		panic(p)
	}
}

// workerOverride holds the user-requested parallelism. Zero means "use
// runtime.GOMAXPROCS(0)".
var workerOverride atomic.Int64

// spawned counts the spawn-budget tokens currently held across the whole
// process. Together with TryAcquire it forms a global spawn budget of
// Workers()-1 tokens. The goroutine that opens the outermost region runs
// without one, and every other running goroutine holds one: a For or Do
// worker returns its token as it exits, and a goroutine blocked in a join
// lends its slot back (see join), so at most Workers() goroutines make
// progress at once no matter how deeply parallel regions nest. An outer
// loop that has already claimed the whole budget (a saturated batch of
// option pricings, say) makes every inner For run serially, and every inner
// Do offer wait for a released token, instead of oversubscribing the machine
// with len(outer) * Workers() goroutines.
var spawned atomic.Int64

// forks and forksInlined count the For and Do calls that asked the budget for
// workers and ran part of their work on another goroutine, or ran it all on
// the calling one.
var forks, forksInlined atomic.Int64

// Forks reports, since process start, how many For and Do calls consulted
// the spawn budget and forked (taken) or ran serially for want of a token
// (inlined). A Do counts as taken when a token started one of its offers.
// Calls that never ask — a single function, a loop of one chunk, a
// single-worker configuration — count as neither.
func Forks() (taken, inlined int64) { return forks.Load(), forksInlined.Load() }

// TryAcquire claims up to max worker tokens from the global spawn budget and
// returns how many it got (possibly zero; never blocks). Each token entitles
// the caller to run one extra worker goroutine while that worker runs; it
// must be returned with Release as the worker finishes. For, Do and RowSweep
// acquire their workers through this budget, so external schedulers (e.g.
// the batch pricing engine) can claim tokens for their own pools and the
// nested pricers degrade gracefully to serial execution.
func TryAcquire(max int) int {
	return tryAcquire(max, 0)
}

// TryAcquireBulk is TryAcquire for bulk work (batches, scenario sweeps): it
// leaves SetBulkReserve tokens of headroom untouched so that interactive
// quote repricing can always fork even while a bulk job saturates the
// machine. Under pressure this is what sheds sweep/batch parallelism before
// quote parallelism — bulk callers degrade to serial execution first.
func TryAcquireBulk(max int) int {
	return tryAcquire(max, bulkReserve.Load())
}

func tryAcquire(max int, reserve int64) int {
	if max <= 0 {
		return 0
	}
	if faultinject.Enabled() && faultinject.OnBudget() {
		return 0
	}
	budget := int64(Workers()-1) - reserve
	for {
		cur := spawned.Load()
		free := budget - cur
		if free <= 0 {
			return 0
		}
		n := int64(max)
		if n > free {
			n = free
		}
		if spawned.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
}

// Release returns n tokens claimed with TryAcquire to the spawn budget. A
// token released while a Do offers work starts the oldest offer on a new
// goroutine instead, and that goroutine returns the token when it exits.
func Release(n int) {
	if n = startOffers(n); n > 0 {
		spawned.Add(-int64(n))
	}
}

// InUse reports the number of spawn-budget tokens currently outstanding.
// Leak tests assert it returns to zero after cancellations and panics.
func InUse() int { return int(spawned.Load()) }

// bulkReserve is the headroom TryAcquireBulk leaves for interactive work.
var bulkReserve atomic.Int64

// SetBulkReserve reserves n spawn-budget tokens for non-bulk callers and
// returns the previous reservation. The live pricing server reserves a slice
// of the machine at startup so quote repricing never queues behind a
// saturating ScenarioSweep.
func SetBulkReserve(n int) int {
	if n < 0 {
		n = 0
	}
	return int(bulkReserve.Swap(int64(n)))
}

// SetWorkers sets the number of workers used by For and Do. n <= 0 restores
// the default (GOMAXPROCS). It returns the previous override (0 if none was
// set), so callers can restore it.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int64(n)))
}

// Workers reports the effective parallelism used by For and Do.
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For executes body(lo, hi) over disjoint chunks covering [0, n) using up to
// Workers() goroutines. grain is the minimum chunk size; it bounds scheduling
// overhead for fine-grained loops. For runs body inline when the loop is
// small or only one worker is available.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	maxChunks := (n + grain - 1) / grain
	if w > maxChunks {
		w = maxChunks
	}
	if w <= 1 {
		body(0, n)
		return
	}
	tokens := TryAcquire(w - 1)
	if tokens == 0 {
		// The spawn budget is exhausted (an enclosing parallel region
		// already keeps every worker busy): run serially.
		forksInlined.Add(1)
		body(0, n)
		return
	}
	forks.Add(1)
	// Static partition into tokens+1 nearly equal chunks, each >= grain
	// except possibly the last. Static scheduling is appropriate here: every
	// loop body in this module is uniform-cost across the index space. The
	// rounded-up chunk can leave fewer chunks than tokens; the spare tokens
	// go back at once.
	chunk := (n + tokens) / (tokens + 1)
	workers := (n+chunk-1)/chunk - 1
	Release(tokens - workers)
	j := newJoin(workers)
	for start := chunk; start < n; start += chunk {
		end := min(start+chunk, n)
		j.fork(func() { body(start, end) })
	}
	// The first chunk runs inline: the calling goroutine is itself one of
	// the workers and holds no token for it.
	capture(&j.pe, func() { body(0, chunk) })
	j.wait()
}

// Do runs the given functions as a fork-join block: all of them execute and
// Do returns when every one has finished. The last one runs inline on the
// calling goroutine. Each of the others is offered to the spawn budget: a
// token that is free when Do is called, or that any worker in the process
// releases while the caller runs the last function, starts the oldest offer
// on a goroutine of its own. The caller then runs the offers nobody started,
// newest first. So a caller with one long branch and several short ones
// passes the long one last, and the short ones run beside it as soon as a
// core is idle. With a single worker they all run sequentially, in order.
func Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	if Workers() <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	last := len(fns) - 1
	j := newJoin(last)
	offs := j.offer(fns[:last])
	Release(TryAcquire(last))
	// The inline functions are captured too: a panic in one must not skip
	// the join while started offers still run, and the first panic should
	// win deterministically regardless of where it happened.
	capture(&j.pe, fns[last])
	started := false
	for i := last - 1; i >= 0; i-- {
		if !withdraw(&offs[i]) {
			started = true
			continue
		}
		capture(&j.pe, offs[i].f)
		j.pending.Add(-1)
	}
	if started {
		forks.Add(1)
	} else {
		forksInlined.Add(1)
	}
	j.wait()
}

// offer is a Do function waiting in offers for a released token to start it,
// or for its caller to withdraw it and run it inline.
type offer struct {
	f func()
	j *join
}

// offers holds the pending offers of every Do in the process, oldest first.
// Released tokens start the oldest, which come from the outermost regions
// and carry the most work; callers withdraw their own from the newest end.
// n mirrors len(q) so that Release checks for offers without the lock.
var offers struct {
	sync.Mutex
	q []*offer
	n atomic.Int64
}

// offer queues fns as offers of the region.
func (j *join) offer(fns []func()) []offer {
	offs := make([]offer, len(fns))
	offers.Lock()
	for i, f := range fns {
		offs[i] = offer{f: f, j: j}
		offers.q = append(offers.q, &offs[i])
	}
	offers.n.Store(int64(len(offers.q)))
	offers.Unlock()
	return offs
}

// withdraw takes o out of the queue and reports whether it was still there.
// When it was not, a released token has started it.
func withdraw(o *offer) bool {
	offers.Lock()
	defer offers.Unlock()
	q := offers.q
	for i := len(q) - 1; i >= 0; i-- {
		if q[i] == o {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			offers.q = q[:len(q)-1]
			offers.n.Store(int64(len(offers.q)))
			return true
		}
	}
	return false
}

// startOffers spends up to n held tokens starting the oldest offers, each on
// a goroutine that returns its token as it exits, and returns how many
// tokens are left.
func startOffers(n int) int {
	for n > 0 && offers.n.Load() > 0 {
		offers.Lock()
		if len(offers.q) == 0 {
			offers.Unlock()
			break
		}
		o := offers.q[0]
		offers.q[0] = nil
		offers.q = offers.q[1:]
		offers.n.Store(int64(len(offers.q)))
		offers.Unlock()
		o.j.fork(o.f)
		n--
	}
	return n
}

// join is the fork-join bookkeeping of one For or Do region. Every forked
// worker, and every started offer, holds one spawn-budget token and returns
// it as it exits. The goroutine that forked them lends its own slot to the
// budget if it reaches the join while workers still run; the last worker out
// then hands its token to the joiner instead of returning it, and the joiner
// resumes on it. So a token is held only while a goroutine runs, the joiner
// leaves with exactly the slot it came in with, and every token the region
// claimed is back when the joiner returns.
//
// A panic in any worker or inline function is captured and re-raised after
// the join, so no goroutine outlives the region and the budget stays paired
// on the panic path too.
type join struct {
	// pending counts the workers still running and the offers not yet
	// withdrawn, plus one for the joiner until it reaches the join; whoever
	// takes it to zero is last.
	pending atomic.Int64
	// resume releases a joiner that found workers still running.
	resume sync.WaitGroup
	pe     atomic.Pointer[PanicError]
}

// newJoin prepares a region of the given number of workers: For forks each on
// a token the caller already holds, Do offers each.
func newJoin(workers int) *join {
	j := &join{}
	j.pending.Store(int64(workers) + 1)
	j.resume.Add(1)
	return j
}

// fork runs f on a new goroutine holding one of the region's tokens.
func (j *join) fork(f func()) {
	go func() {
		defer j.exit()
		capture(&j.pe, f)
	}()
}

// exit ends a forked worker. The last one out while the joiner waits hands
// its token over, so the joiner resumes on a slot without racing other
// goroutines for the budget; every other worker returns its token.
func (j *join) exit() {
	if j.pending.Add(-1) == 0 {
		j.resume.Done()
		return
	}
	Release(1)
}

// wait is the join. A joiner whose workers are all done returns at once;
// otherwise it lends its slot to the budget and blocks until the last worker
// hands it a token back.
func (j *join) wait() {
	if j.pending.Add(-1) != 0 {
		Release(1)
		j.resume.Wait()
	}
	rethrow(&j.pe)
}
