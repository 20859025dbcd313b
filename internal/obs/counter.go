package obs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Counter is a process-wide cumulative count: recording is one atomic add,
// reading one atomic load, and neither allocates. Counters are never zeroed
// (Reset leaves them alone), so a reader samples before and after a workload
// and subtracts to attribute activity to it. Create counters with
// NewCounter, which registers them for WriteProm.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// NewCounter creates and registers a named counter. name is the Prometheus
// metric name, by convention ending in _total.
func NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	register(c)
	return c
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the counter's current value.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) reset() {}

func (c *Counter) writeProm(w io.Writer) { writeSample(w, c.name, c.help, "counter", c.v.Load()) }

// Gauge is a current-value series — a cache's footprint, tokens held right
// now — read on demand from the state its owner already keeps, so it costs
// nothing until a scrape. NewGauge registers it for WriteProm.
type Gauge struct {
	name string
	help string
	read func() int64
}

// NewGauge creates and registers a named gauge whose value is read().
// read runs on the monitoring path and must be safe for concurrent use.
func NewGauge(name, help string, read func() int64) *Gauge {
	g := &Gauge{name: name, help: help, read: read}
	register(g)
	return g
}

// Load returns the gauge's current value.
func (g *Gauge) Load() int64 { return g.read() }

func (g *Gauge) reset() {}

func (g *Gauge) writeProm(w io.Writer) { writeSample(w, g.name, g.help, "gauge", g.read()) }

// writeSample emits one unlabeled series under its HELP and TYPE lines.
// Counters and gauges are written even at zero: a series that appears only
// once something happened cannot be told apart from one that is not
// exported at all.
func writeSample(w io.Writer, name, help, typ string, v int64) {
	writeHeader(w, name, help, typ)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// writeHeader emits a metric family's HELP and TYPE lines.
func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}
