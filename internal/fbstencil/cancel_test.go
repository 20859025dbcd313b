package fbstencil

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"github.com/nlstencil/amop/internal/par"
)

// TestCancelMidSolve: on a span-2 put, a Cancel hook that fails after k
// polls unwinds the solve with the hook's error, from the main loop or from
// a forked strip (where the unwinding panic arrives wrapped in a
// *par.PanicError), leaves no spawn token in use, and leaves the pooled
// engine able to repeat the uncanceled solve bit for bit.
func TestCancelMidSolve(t *testing.T) {
	prev := par.SetWorkers(2)
	defer par.SetWorkers(prev)
	errStop := errors.New("stop")
	p := optParams{S: 100, K: 100, R: 0.05, V: 0.3, Y: 0.02, E: 1}
	for _, T := range []int{4096, 32768} {
		prob := putProblemTOPM(p, T)
		want, wantBnd, err := SolveGreenLeftOneSided(prob, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{0, 1, 3, 10} {
			var polls atomic.Int64
			q := *prob
			q.Cancel = func() error {
				if polls.Add(1) > k {
					return errStop
				}
				return nil
			}
			if _, _, err := SolveGreenLeftOneSided(&q, nil); !errors.Is(err, errStop) {
				t.Fatalf("T=%d k=%d: canceled solve returned %v, want %v", T, k, err, errStop)
			}
			if n := par.InUse(); n != 0 {
				t.Errorf("T=%d k=%d: %d spawn tokens in use after the canceled solve", T, k, n)
			}
			got, gotBnd, err := SolveGreenLeftOneSided(prob, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) || gotBnd != wantBnd {
				t.Errorf("T=%d k=%d: solve after cancel = %.17g (boundary %d), want %.17g (boundary %d)",
					T, k, got, gotBnd, want, wantBnd)
			}
		}
	}
}
