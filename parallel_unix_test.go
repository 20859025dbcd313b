//go:build unix

package amop

import (
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/nlstencil/amop/internal/par"
)

// At two workers a deep solve forks in a real share of the fork-join calls
// that ask the spawn budget, because a forked branch returns its token as it
// exits instead of holding it to the join, and a branch that finds no token
// waits for the next one. When branches held their tokens to the join and
// never waited, this solve forked in 6 of its 1276 calls (0.5%).
//
// The share also depends on how many CPUs the process gets: with another
// process busy on one of two CPUs it reads ~10%. So a share under the floor
// is a failure only if the process had at least ~1.6 CPUs to itself just
// before and just after the solve, as measured by usableCPUs.
func TestDeepSolveTakesForks(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a forked branch finishes before its sibling forks again only when two goroutines run at once")
	}
	o := parityOption
	o.Type = Put
	cpusBefore := usableCPUs(t)
	taken0, inlined0 := par.Forks()
	priceWithWorkers(t, 2, o, BlackScholesFD, 1<<15)
	taken1, inlined1 := par.Forks()
	cpus := min(cpusBefore, usableCPUs(t))
	taken, inlined := taken1-taken0, inlined1-inlined0
	share := float64(taken) / float64(taken+inlined)
	t.Logf("solve forked in %d of %d calls (%.1f%%); %.2f usable CPUs around it", taken, taken+inlined, 100*share, cpus)
	if n := par.InUse(); n != 0 {
		t.Errorf("%d budget tokens in use after the solve", n)
	}
	if share <= 0.10 {
		if cpus < 1.6 {
			t.Skipf("forked in %.1f%% of calls with only %.2f usable CPUs: the share measured the machine's load", 100*share, cpus)
		}
		t.Errorf("forked in %.1f%% of calls, want more than 10%%", 100*share)
	}
}

// usableCPUs measures how many CPUs the process gets right now, without the
// solver: two goroutines busy-spin for ~50 ms, and the process's CPU time
// over that window (getrusage, RUSAGE_SELF) is divided by the wall time. An
// idle machine with two or more CPUs reads about 2.
func usableCPUs(t *testing.T) float64 {
	t.Helper()
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatalf("getrusage: %v", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	const spin = 50 * time.Millisecond
	cpu0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < spin {
			}
		}()
	}
	wg.Wait()
	return float64(cpuTime()-cpu0) / float64(time.Since(start))
}
