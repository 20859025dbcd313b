package trace

import (
	"fmt"
	"math"
	"unsafe"

	"github.com/nlstencil/amop/internal/cachesim"
	"github.com/nlstencil/amop/internal/fbstencil"
	"github.com/nlstencil/amop/internal/sweep"
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
// buffer. The FFT runs traced (evolveCone) on its input strip, and its
// exit pass stores each output where the solver does. A direct
// step reads its obstacle where the solver does: in the row it filled, or in
// the problem's table, whose cells get their simulated addresses, page by
// page, when a step first reports them (EventSource). A read of a cell no
// recorded step wrote, or whose value differs from the one recorded there,
// means the schedule missed a write; the replay then returns an error.
func Replay(h *cachesim.Hierarchy, solve func(*fbstencil.Stats) (float64, error)) (*fbstencil.Stats, error) {
	_, st, err := newReplayer(h).replay(solve)
	return st, err
}

// ReplaySweep runs run, one of package sweep's baselines, on p with its
// steps recorded (p.Record), replays each step on h as Replay does, and
// returns the sweep's result. An error means a read found no recorded write
// or a changed value.
func ReplaySweep(h *cachesim.Hierarchy, p *sweep.Problem, run func(*sweep.Problem) float64) (float64, error) {
	r := newReplayer(h)
	q := *p
	q.Record = r.apply
	v := run(&q)
	return v, r.err()
}

type replayer struct {
	h     *cachesim.Hierarchy
	plans planCache
	cells cellIndex // solver cell -> where and what it was last written
	// sources maps a page of a problem's table (cellIndex's page key) to
	// its simulated memory.
	sources map[uintptr]uint64

	unresolved int // reads of cells no recorded step wrote
	stale      int // reads of cells rewritten since their recorded write
}

// cell is the simulated address of a solver cell and the value recorded
// there. p is the solver cell itself, nil for a cell no step recorded; it
// keeps the cell's buffer alive for the replay, so no later buffer can take
// its address.
type cell struct {
	p         *float64
	addr      uint64
	v         uint64 // math.Float64bits
	unwritten bool   // allocated (EventAlloc), no value yet
}

// cellIndex holds the cells in pages of 1<<pageBits float64 slots keyed by
// address. Steps walk their buffers in order, so the page used last serves
// most lookups without hashing.
type cellIndex struct {
	pages map[uintptr]*cellPage
	key   uintptr
	last  *cellPage
}

const pageBits = 9

type cellPage [1 << pageBits]cell

// at returns the record of solver cell p.
func (x *cellIndex) at(p *float64) *cell {
	a := uintptr(unsafe.Pointer(p)) / 8
	if k := a >> pageBits; x.last == nil || x.key != k {
		pg := x.pages[k]
		if pg == nil {
			pg = new(cellPage)
			x.pages[k] = pg
		}
		x.key, x.last = k, pg
	}
	return &x.last[a&(1<<pageBits-1)]
}

func newReplayer(h *cachesim.Hierarchy) *replayer {
	return &replayer{h: h, plans: planCache{}, cells: cellIndex{pages: map[uintptr]*cellPage{}}, sources: map[uintptr]uint64{}}
}

// replay runs the recorded solve and returns its price and Stats.
func (r *replayer) replay(solve func(*fbstencil.Stats) (float64, error)) (float64, *fbstencil.Stats, error) {
	st := new(fbstencil.Stats)
	fbstencil.Record(st, r.apply)
	v, err := solve(st)
	if err == nil {
		err = r.err()
	}
	return v, st, err
}

// err reports the reads that found no recorded write or a changed value.
func (r *replayer) err() error {
	if r.unresolved+r.stale > 0 {
		return fmt.Errorf("trace: replay read %d unwritten and %d rewritten cells: the schedule misses writes", r.unresolved, r.stale)
	}
	return nil
}

func (r *replayer) apply(ev fbstencil.Event) {
	switch ev.Kind {
	case fbstencil.EventFill:
		r.write(ev.Dst, ev.InPlace, func(int) { r.h.AddFlops(flopsPerExp) })
	case fbstencil.EventCopy:
		r.write(ev.Dst, ev.InPlace, func(i int) { r.read(ev.Src, i, true) })
	case fbstencil.EventSweep:
		// Cell j reads Src[j+i]. A step whose Dst starts at Src[0] has
		// overwritten the inputs it shares with Dst; those past Dst's end
		// are checked. The fast solver's step then reads its obstacle from
		// Ex, reported before the step; a sweep fills its exercise chunk
		// unreported.
		shared := len(ev.Dst) > 0 && &ev.Dst[0] == &ev.Src[0]
		flops := uint64(flopsPerCell)
		if ev.Ex == nil {
			flops += 2 // the exercise chunk: one multiply
		}
		r.write(ev.Dst, ev.InPlace, func(j int) {
			for i := range ev.W {
				r.read(ev.Src, j+i, !shared || j+i >= len(ev.Dst))
			}
			if ev.Ex != nil {
				r.read(ev.Ex, j, true)
			}
			r.h.AddFlops(flops)
		})
	case fbstencil.EventSource:
		r.source(ev.Dst)
	case fbstencil.EventAlloc:
		base := r.h.Alloc(8 * len(ev.Dst))
		for i := range ev.Dst {
			*r.cells.at(&ev.Dst[i]) = cell{p: &ev.Dst[i], addr: base + 8*uint64(i), unwritten: true}
		}
	case fbstencil.EventFFT:
		out := r.evolveCone(len(ev.Src), func(i int) float64 { r.read(ev.Src, i, true); return 0 }, ev.W, ev.Steps)
		r.write(ev.Dst, ev.InPlace, out)
	}
}

// source places the cells of src, a row view of a problem's table, that no
// step reported before: at their offset in simulated memory of their own page
// of the table, computed once (one exp each). A reported cell must still
// hold the value recorded there.
func (r *replayer) source(src []float64) {
	for i := range src {
		c := r.cells.at(&src[i])
		if c.p != nil {
			if c.unwritten {
				r.unresolved++
			} else if c.v != math.Float64bits(src[i]) {
				r.stale++
			}
			continue
		}
		a := uintptr(unsafe.Pointer(&src[i])) / 8
		base, ok := r.sources[a>>pageBits]
		if !ok {
			base = r.h.Alloc(8 << pageBits)
			r.sources[a>>pageBits] = base
		}
		*c = cell{p: &src[i], addr: base + 8*uint64(a&(1<<pageBits-1)), v: math.Float64bits(src[i])}
		r.h.AddFlops(flopsPerExp)
	}
}

// read accesses buf[i] where it was last written; check compares the value
// recorded there with the one buf holds now.
func (r *replayer) read(buf []float64, i int, check bool) {
	c := r.cells.at(&buf[i])
	switch {
	case c.p == nil || c.unwritten:
		r.unresolved++
	case check && c.v != math.Float64bits(buf[i]):
		r.stale++
	}
	if c.p != nil {
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
		c := r.cells.at(&dst[i])
		addr := base + 8*uint64(i)
		if inPlace {
			if c.p == nil {
				r.unresolved++
				continue
			}
			addr = c.addr
		}
		r.h.Access(addr)
		*c = cell{p: &dst[i], addr: addr, v: math.Float64bits(dst[i])}
	}
}
