// Package faultinject provides deterministic fault-injection hook points for
// robustness testing: solver panics, slow solves, forced NaN results, and
// spawn-budget exhaustion. The hooks are compiled in unconditionally but sit
// behind a single atomic gate that is off by default, so the production fast
// path pays one atomic load per solve and nothing else.
//
// Faults are armed either programmatically (Enable + Inject, used by the
// chaos tests and the serve-chaos harness experiment) or from the
// environment: AMOP_FAULTINJECT=1 merely opens the gate, while
// AMOP_FAULTINJECT="panic:SYM1;delay:SYM2:50ms;nan:SYM3" arms rules at
// process start (see ParseSpec for the grammar). Rules match solve requests
// by substring of the request tag — the serving layer tags each request with
// its symbol, so a chaos run can break one symbol while its neighbors stay
// healthy.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the hook points.
type Kind int

const (
	// SolvePanic makes the matched solve panic ("solver bug").
	SolvePanic Kind = iota + 1
	// SolveDelay sleeps the matched solve for Rule.Delay ("slow solve").
	SolveDelay
	// SolveNaN forces the matched solve to return NaN ("numerical poison").
	SolveNaN
	// BudgetDeny makes par.TryAcquire report an exhausted spawn budget,
	// forcing serial degradation everywhere.
	BudgetDeny
)

func (k Kind) String() string {
	switch k {
	case SolvePanic:
		return "panic"
	case SolveDelay:
		return "delay"
	case SolveNaN:
		return "nan"
	case BudgetDeny:
		return "budget"
	}
	return fmt.Sprintf("faultinject.Kind(%d)", int(k))
}

// Rule arms one fault.
type Rule struct {
	Kind  Kind
	Match string        // substring of the solve tag; "" matches every solve
	Times int           // firings before the rule disarms itself; <= 0 means unlimited
	Delay time.Duration // sleep length for SolveDelay
}

// Action is the combined effect of every rule matching one solve. Delay is
// applied first, then NaN, then Panic (a rule set pairing delay with panic
// models a solver that burns time before dying).
type Action struct {
	Panic bool
	NaN   bool
	Delay time.Duration
}

// enabled is the global gate. All hook entry points load it first and return
// immediately when it is false.
var enabled atomic.Bool

var (
	mu    sync.Mutex
	rules []*armedRule
)

type armedRule struct {
	Rule
	fired int
}

// Enabled reports whether the injection gate is open.
func Enabled() bool { return enabled.Load() }

// Enable opens the injection gate. Armed rules start firing.
func Enable() { enabled.Store(true) }

// Reset closes the gate and clears every rule. Tests call it in cleanup.
func Reset() {
	enabled.Store(false)
	mu.Lock()
	rules = nil
	mu.Unlock()
}

// Inject arms a rule. The gate must be opened separately with Enable.
func Inject(r Rule) {
	mu.Lock()
	rules = append(rules, &armedRule{Rule: r})
	mu.Unlock()
}

// OnSolve reports the combined fault action for a solve carrying the given
// tag, consuming one firing from each matched counted rule. The zero Action
// means "no fault".
func OnSolve(tag string) Action {
	var a Action
	if !enabled.Load() {
		return a
	}
	mu.Lock()
	for _, r := range rules {
		if r.Kind == BudgetDeny || !r.matches(tag) {
			continue
		}
		switch r.Kind {
		case SolvePanic:
			a.Panic = true
		case SolveDelay:
			a.Delay += r.Delay
		case SolveNaN:
			a.NaN = true
		}
	}
	mu.Unlock()
	return a
}

// OnBudget reports whether a BudgetDeny rule fires for this budget
// acquisition, consuming one firing from each matched counted rule.
func OnBudget() bool {
	if !enabled.Load() {
		return false
	}
	deny := false
	mu.Lock()
	for _, r := range rules {
		if r.Kind == BudgetDeny && r.matches("") {
			deny = true
		}
	}
	mu.Unlock()
	return deny
}

// matches consumes a firing when the rule applies. Callers hold mu.
func (r *armedRule) matches(tag string) bool {
	if r.Times > 0 && r.fired >= r.Times {
		return false
	}
	if r.Match != "" && !strings.Contains(tag, r.Match) {
		return false
	}
	r.fired++
	return true
}

// ParseSpec parses a semicolon-separated rule list:
//
//	rule      = kind [ ":" match [ ":" arg ] ]
//	kind      = "panic" | "delay" | "nan" | "budget"
//	arg       = duration (delay)  |  count ("x" suffix, e.g. "3x")
//
// Examples: "panic:ACME", "delay:SLOW:50ms", "nan", "panic:ACME:2x".
// The literal "1" (the plain AMOP_FAULTINJECT=1 gate) yields no rules.
func ParseSpec(spec string) ([]Rule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "1" {
		return nil, nil
	}
	var out []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, ":", 3)
		var r Rule
		switch fields[0] {
		case "panic":
			r.Kind = SolvePanic
		case "delay":
			r.Kind = SolveDelay
			r.Delay = 10 * time.Millisecond
		case "nan":
			r.Kind = SolveNaN
		case "budget":
			r.Kind = BudgetDeny
		default:
			return nil, fmt.Errorf("faultinject: unknown fault kind %q in %q", fields[0], part)
		}
		if len(fields) > 1 {
			r.Match = fields[1]
		}
		if len(fields) > 2 {
			arg := fields[2]
			if n, ok := strings.CutSuffix(arg, "x"); ok {
				times, err := strconv.Atoi(n)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad count %q in %q", arg, part)
				}
				r.Times = times
			} else {
				d, err := time.ParseDuration(arg)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad duration %q in %q", arg, part)
				}
				r.Delay = d
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// init arms the package from AMOP_FAULTINJECT so chaos behavior can be
// switched on for a whole process (CLI daemons included) with no code
// change. A malformed spec is reported and ignored rather than killing the
// process: fault injection must never be the fault.
func init() {
	spec := os.Getenv("AMOP_FAULTINJECT")
	if spec == "" {
		return
	}
	rs, err := ParseSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amop: ignoring AMOP_FAULTINJECT: %v\n", err)
		return
	}
	for _, r := range rs {
		Inject(r)
	}
	Enable()
}
