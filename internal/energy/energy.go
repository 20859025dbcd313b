// Package energy models package (CPU+caches) and DRAM energy from the event
// counts produced by package trace's replays, replacing the paper's perf/RAPL
// measurements (Figures 6 and 10).
//
// The model is the standard linear event-cost form
//
//	E_pkg = e_flop*flops + e_l1*L1hits + e_l2*L2hits + e_llc*L2misses
//	        + P_pkgIdle * t
//	E_ram = e_dram*L2misses + P_ramIdle * t
//
// with per-event energies in the ranges reported for ~14 nm server parts
// (Horowitz, ISSCC 2014, scaled; Molka et al., ICPADS 2010): a few pJ per
// double-precision flop, ~1 pJ/B for L1, tens of pJ per L2 line, and
// ~10-20 nJ per DRAM line, plus static power integrated over the measured
// wall time. Absolute Joules are model outputs, not measurements; the
// experiments reproduce the paper's *shape* — energy tracks total work, so
// the O(T log^2 T) algorithm's savings grow from ~80% at T~4000 toward >99%
// at large T.
package energy

import "github.com/nlstencil/amop/internal/cachesim"

// Model holds per-event energies (Joules) and static powers (Watts).
type Model struct {
	FlopJ    float64 // per floating-point op
	L1HitJ   float64 // per L1 access that hits
	L2HitJ   float64 // per L1 miss served by L2
	LLCMissJ float64 // per L2 miss (on-package traffic to the memory controller)
	DRAMJ    float64 // per L2 miss served by DRAM (RAM domain)
	PkgIdleW float64 // static package power
	RAMIdleW float64 // static DRAM power
}

// Skylake returns the default model, loosely calibrated to a 2-socket SKX
// node like the paper's Table 3 testbed.
func Skylake() Model {
	return Model{
		FlopJ:    10e-12,
		L1HitJ:   8e-12,
		L2HitJ:   40e-12,
		LLCMissJ: 500e-12,
		DRAMJ:    15e-9,
		PkgIdleW: 60,
		RAMIdleW: 6,
	}
}

// Breakdown is the modeled energy split by RAPL domain.
type Breakdown struct {
	Pkg   float64 // Joules, package domain (cores + caches)
	RAM   float64 // Joules, DRAM domain
	Total float64
}

// Energy converts counters plus the measured wall time into Joules.
func (m Model) Energy(c cachesim.Counters, seconds float64) Breakdown {
	pkg := m.FlopJ*float64(c.Flops) +
		m.L1HitJ*float64(c.L1Hits) +
		m.L2HitJ*float64(c.L2Hits) +
		m.LLCMissJ*float64(c.L2Misses) +
		m.PkgIdleW*seconds
	ram := m.DRAMJ*float64(c.L2Misses) + m.RAMIdleW*seconds
	return Breakdown{Pkg: pkg, RAM: ram, Total: pkg + ram}
}
