package amop

import (
	"io"
	"sort"

	"github.com/nlstencil/amop/internal/obs"
	"github.com/nlstencil/amop/internal/serve"
)

// WriteMetrics writes every process-wide metric in Prometheus text
// exposition format: the counters and gauges of the spectrum cache, the FFT
// substrate, the scratch pools, the spawn budget, the batch memo, the
// pricing tiers, the analytic caches and the serving path, then the latency
// histograms as quantile summaries. Each package registers its own
// instruments in the one obs registry, so this is the whole set.
// cmd/amop-serve serves it on /metrics and logs it at shutdown.
func WriteMetrics(w io.Writer) { obs.WriteProm(w) }

// SymbolHealth is one symbol's serving health, as reported by Server.Health:
// the breaker state plus the counts of contracts currently quarantined or
// whose latest solve attempt failed (both serve degraded off pinned
// last-good prices, or error when no good price was ever solved).
type SymbolHealth struct {
	Symbol string `json:"symbol"`
	// Breaker is the circuit-breaker state: "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	// Contracts is the number of contracts registered under the symbol.
	Contracts int `json:"contracts"`
	// Quarantined counts contracts pulled from repricing flights after a
	// solver panic.
	Quarantined int `json:"quarantined,omitempty"`
	// Failing counts contracts whose most recent solve attempt failed
	// (health-gate rejection, solver error, or panic); quarantined contracts
	// are included.
	Failing int `json:"failing,omitempty"`
}

// ServerHealth is the readiness view of a live pricing server — the
// per-symbol health signal the sharding router consumes to steer quote
// traffic away from degraded shards. It is served as JSON at /readyz by
// amop-serve.
type ServerHealth struct {
	// Ready is the headline readiness: true when no breaker is open, no
	// contract is quarantined, and no contract's latest solve failed. A
	// not-ready server still answers quotes (degraded serving is the whole
	// point of the fault-isolation layer); Ready=false tells a router this
	// replica should shed load to healthier peers when it can.
	Ready bool `json:"ready"`
	// OpenBreakers lists symbols whose circuit breaker is open or half-open.
	OpenBreakers []string `json:"open_breakers,omitempty"`
	// DegradedSymbols lists symbols with at least one quarantined or failing
	// contract.
	DegradedSymbols []string `json:"degraded_symbols,omitempty"`
	// QuarantinedContracts is the total count of quarantined contracts.
	QuarantinedContracts int `json:"quarantined_contracts,omitempty"`
	// Symbols is the full per-symbol breakdown, sorted by symbol.
	Symbols []SymbolHealth `json:"symbols"`
}

// Health reports the server's current readiness: breaker states, quarantined
// contracts and failing solves, aggregated per symbol. It takes the server
// lock once and performs no solves, so it is safe to poll at router
// frequency.
func (s *Server) Health() ServerHealth {
	s.mu.Lock()
	perSym := make(map[string]*SymbolHealth, len(s.markets))
	for i := range s.book {
		c := &s.book[i]
		sym := c.entry.Symbol
		h := perSym[sym]
		if h == nil {
			h = &SymbolHealth{Symbol: sym}
			perSym[sym] = h
		}
		h.Contracts++
		if c.quar != nil {
			h.Quarantined++
		}
		if c.err != nil || c.quar != nil {
			h.Failing++
		}
	}
	breakers := make(map[string]serve.BreakerState, len(s.breakers))
	for sym, b := range s.breakers {
		breakers[sym] = b.State()
	}
	s.mu.Unlock()

	out := ServerHealth{Ready: true}
	for sym, h := range perSym {
		h.Breaker = breakers[sym].String()
		if breakers[sym] != serve.BreakerClosed {
			out.OpenBreakers = append(out.OpenBreakers, sym)
			out.Ready = false
		}
		if h.Quarantined > 0 || h.Failing > 0 {
			out.DegradedSymbols = append(out.DegradedSymbols, sym)
			out.Ready = false
		}
		out.QuarantinedContracts += h.Quarantined
		out.Symbols = append(out.Symbols, *h)
	}
	sort.Strings(out.OpenBreakers)
	sort.Strings(out.DegradedSymbols)
	sort.Slice(out.Symbols, func(i, j int) bool { return out.Symbols[i].Symbol < out.Symbols[j].Symbol })
	return out
}
