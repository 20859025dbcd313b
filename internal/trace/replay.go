package trace

import (
	"fmt"
	"math"

	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/fbstencil"
)

// Replay runs solve, a production fast solve such as a model's
// PriceFastStats, with its schedule recorded, replays each step on h as it
// is reported, and returns the recorded solve's Stats.
//
// The replay follows the solver's own buffers. Every cell a step writes gets
// a simulated address: in fresh simulated memory, allocated per step as the
// solver allocates per buffer, or, for a step that rewrites its buffer in
// place, at the address the cell already has. Every cell a step reads is one
// access at the address of the step that last wrote that cell of that
// buffer; a column the step takes from the closed form instead is an
// evaluation, not an access. The FFT runs traced (evolveCone) on its input
// strip. A read of a cell no recorded step wrote, or whose value differs
// from the one recorded there, means the schedule missed a write; the
// replay then returns an error.
func Replay(h *cachesim.Hierarchy, solve func(*fbstencil.Stats) (float64, error)) (*fbstencil.Stats, error) {
	_, st, err := newReplayer(h).replay(solve)
	return st, err
}

type replayer struct {
	h     *cachesim.Hierarchy
	plans planCache
	cells map[*float64]cell // solver cell -> where and what it was last written

	closedForm int // closed-form reads
	unresolved int // reads of cells no recorded step wrote
	stale      int // reads of cells rewritten since their recorded write
}

// cell is the simulated address of a solver cell and the value recorded
// there.
type cell struct {
	addr uint64
	v    uint64 // math.Float64bits
}

func newReplayer(h *cachesim.Hierarchy) *replayer {
	return &replayer{h: h, plans: planCache{}, cells: map[*float64]cell{}}
}

// replay runs the recorded solve and returns its price and Stats.
func (r *replayer) replay(solve func(*fbstencil.Stats) (float64, error)) (float64, *fbstencil.Stats, error) {
	st := new(fbstencil.Stats)
	fbstencil.Record(st, r.apply)
	v, err := solve(st)
	if err == nil && r.unresolved+r.stale > 0 {
		err = fmt.Errorf("trace: replay read %d unwritten and %d rewritten cells: the schedule misses writes", r.unresolved, r.stale)
	}
	return v, st, err
}

func (r *replayer) apply(ev fbstencil.Event) {
	switch ev.Kind {
	case fbstencil.EventFill:
		r.write(ev.Dst, ev.InPlace, func(int) { r.h.AddFlops(flopsPerExp) })
	case fbstencil.EventCopy:
		r.write(ev.Dst, false, func(i int) { r.read(ev.Src, i, true) })
	case fbstencil.EventDirect:
		// Cell j reads columns Lo+j+i; the stencil lands on Src past Bnd.
		cellAt := func(j int) {
			for i := range ev.W {
				if c := ev.Lo + j + i; c <= ev.Bnd {
					r.closedForm++
					r.h.AddFlops(flopsPerExp)
				} else {
					// An in-place step has overwritten its inputs by the
					// time it is reported, so their values cannot be checked.
					r.read(ev.Src, c-ev.Bnd-1, !ev.InPlace)
				}
			}
			r.h.AddFlops(flopsPerCell + flopsPerExp)
		}
		if ev.Dst == nil {
			for j := 0; j < ev.N; j++ {
				cellAt(j)
			}
			return
		}
		r.write(ev.Dst, ev.InPlace, cellAt)
	case fbstencil.EventFFT:
		out := r.evolveCone(len(ev.Src), func(i int) float64 { r.read(ev.Src, i, true); return 0 }, ev.W, ev.Steps)
		for i := range ev.Dst {
			r.cells[&ev.Dst[i]] = cell{out.Addr(i), math.Float64bits(ev.Dst[i])}
		}
	}
}

// read accesses buf[i] where it was last written; check compares the value
// recorded there with the one buf holds now.
func (r *replayer) read(buf []float64, i int, check bool) {
	c, ok := r.cells[&buf[i]]
	switch {
	case !ok:
		r.unresolved++
	case check && c.v != math.Float64bits(buf[i]):
		r.stale++
	}
	if ok {
		r.h.Access(c.addr)
	}
}

// write runs compute(i) and then stores dst[i] for each i in order: in fresh
// simulated memory, or where each cell already is if inPlace.
func (r *replayer) write(dst []float64, inPlace bool, compute func(i int)) {
	var base uint64
	if !inPlace {
		base = r.h.Alloc(8 * len(dst))
	}
	for i := range dst {
		compute(i)
		addr := base + 8*uint64(i)
		if inPlace {
			c, ok := r.cells[&dst[i]]
			if !ok {
				r.unresolved++
				continue
			}
			addr = c.addr
		}
		r.h.Access(addr)
		r.cells[&dst[i]] = cell{addr, math.Float64bits(dst[i])}
	}
}
