package amop

import (
	"testing"
	"time"

	"github.com/nlstencil/amop/internal/faultinject"
	"github.com/nlstencil/amop/internal/obs"
)

// Health must flip to not-ready when a contract is quarantined, name the
// degraded symbol, and recover once the quarantine lifts.
func TestServerHealthQuarantine(t *testing.T) {
	faultinject.Reset() // warm the book healthy
	s, _, badID := robustBook(t, ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005,
	})
	if _, err := s.Quote(badID); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if !h.Ready || len(h.OpenBreakers) != 0 || h.QuarantinedContracts != 0 {
		t.Fatalf("healthy book not ready: %+v", h)
	}
	if len(h.Symbols) != 2 || h.Symbols[0].Symbol != "BAD" || h.Symbols[1].Symbol != "GOOD" {
		t.Fatalf("per-symbol breakdown not sorted: %+v", h.Symbols)
	}

	// Panic the BAD solver: the repricing flight quarantines the contract.
	withFaults(t, faultinject.Rule{Kind: faultinject.SolvePanic, Match: "BAD"})
	base := Market{Spot: defaultCall().S, Vol: defaultCall().V, Rate: defaultCall().R}
	moved := base
	moved.Spot += 0.30
	if _, err := s.Tick("BAD", moved); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quote(badID); err != nil {
		t.Fatal(err)
	}
	h = s.Health()
	if h.Ready {
		t.Fatalf("quarantined contract but Ready=true: %+v", h)
	}
	if h.QuarantinedContracts != 1 {
		t.Fatalf("QuarantinedContracts = %d, want 1", h.QuarantinedContracts)
	}
	if len(h.DegradedSymbols) != 1 || h.DegradedSymbols[0] != "BAD" {
		t.Fatalf("DegradedSymbols = %v, want [BAD]", h.DegradedSymbols)
	}
	for _, sh := range h.Symbols {
		switch sh.Symbol {
		case "BAD":
			if sh.Quarantined != 1 || sh.Failing != 1 {
				t.Errorf("BAD health = %+v, want Quarantined=1 Failing=1", sh)
			}
		case "GOOD":
			if sh.Quarantined != 0 || sh.Failing != 0 {
				t.Errorf("GOOD health = %+v, want clean", sh)
			}
		}
	}

	// Heal the solver and move the cell: the quarantine lifts, the next quote
	// solves, and the health view goes green again.
	faultinject.Reset()
	moved.Spot += 0.30
	if _, err := s.Tick("BAD", moved); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quote(badID); err != nil {
		t.Fatal(err)
	}
	if h = s.Health(); !h.Ready || h.QuarantinedContracts != 0 || len(h.DegradedSymbols) != 0 {
		t.Fatalf("health did not recover: %+v", h)
	}
}

// An open circuit breaker must surface in Health as not-ready with the symbol
// listed under OpenBreakers.
func TestServerHealthOpenBreaker(t *testing.T) {
	faultinject.Reset()
	s, _, badID := robustBook(t, ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005,
		BreakerThreshold: 1, BreakerBackoff: time.Hour,
	})
	if _, err := s.Quote(badID); err != nil {
		t.Fatal(err)
	}
	withFaults(t, faultinject.Rule{Kind: faultinject.SolveNaN, Match: "BAD"})
	base := Market{Spot: defaultCall().S, Vol: defaultCall().V, Rate: defaultCall().R}
	moved := base
	moved.Spot += 0.30
	if _, err := s.Tick("BAD", moved); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quote(badID); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.Ready {
		t.Fatalf("open breaker but Ready=true: %+v", h)
	}
	if len(h.OpenBreakers) != 1 || h.OpenBreakers[0] != "BAD" {
		t.Fatalf("OpenBreakers = %v, want [BAD]", h.OpenBreakers)
	}
	for _, sh := range h.Symbols {
		if sh.Symbol == "BAD" && sh.Breaker != "open" {
			t.Fatalf("BAD breaker state %q, want open", sh.Breaker)
		}
	}
}

// The telemetry layer's price of admission on the serving path: a cached
// quote allocates nothing with telemetry on. Its latency cost is measured by
// the seeded benchmark (serve-replay's cached_quote_ns under --compare), not
// here: wall-clock assertions do not belong in the test suite.
func TestCachedQuoteZeroAllocs(t *testing.T) {
	faultinject.Reset()
	s, goodID, _ := robustBook(t, ServerOptions{
		SpotBucket: 0.25, VolBucket: 0.01, RateBucket: 0.0005,
	})
	if _, err := s.Quote(goodID); err != nil {
		t.Fatal(err)
	}
	defer obs.SetEnabled(obs.SetEnabled(true))
	if allocs := testing.AllocsPerRun(2000, func() {
		if _, err := s.Quote(goodID); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("cached quote with telemetry on: %.2f allocs/op, want 0", allocs)
	}
}
