// Package harness runs the reproduction experiments: one entry per table and
// figure of the paper's evaluation (Section 5 and the appendix), producing
// aligned-text tables and optional CSV files.
//
// Wall-clock experiments (Figure 5, Table 5) run the production pricers on
// the host's cores. Counter experiments (Figures 6, 7, 10) replay traced
// kernels through the cache simulator; their T sweeps default to smaller
// caps because simulation of the quadratic baselines is itself quadratic.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config controls experiment sweeps.
type Config struct {
	MaxT      int    // cap for fast-algorithm sweep sizes (default 1<<17)
	MaxQuadT  int    // cap for quadratic baselines' wall-clock runs (default 1<<15)
	MaxTraceT int    // cap for traced (simulated) runs (default 1<<13)
	OutDir    string // when non-empty, write <id>.csv files here
	JSONPath  string // when non-empty, write all tables as one JSON document here
	Out       io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxT == 0 {
		c.MaxT = 1 << 17
	}
	if c.MaxQuadT == 0 {
		c.MaxQuadT = 1 << 15
	}
	if c.MaxTraceT == 0 {
		c.MaxTraceT = 1 << 13
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	return c
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
}

// WriteCSV writes the table to dir/<id>.csv.
func (t *Table) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	write := func(cells []string) error {
		_, err := fmt.Fprintln(f, strings.Join(cells, ","))
		return err
	}
	if err := write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := write(r); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

var (
	registry   []Experiment
	registryMu sync.Mutex
)

func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry = append(registry, e)
}

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunByID runs one experiment (or all when id == "all"), rendering tables
// and writing CSVs per the config.
func RunByID(id string, cfg Config) error {
	cfg = cfg.withDefaults()
	any := false
	var all []*Table
	for _, e := range Experiments() {
		if id != "all" && e.ID != id {
			continue
		}
		any = true
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		for _, t := range tables {
			t.Render(cfg.Out)
			if cfg.OutDir != "" {
				if err := t.WriteCSV(cfg.OutDir); err != nil {
					return err
				}
			}
		}
		all = append(all, tables...)
	}
	if !any {
		return fmt.Errorf("harness: unknown experiment %q (use 'all' or one of %s)", id, idList())
	}
	if cfg.JSONPath != "" {
		if err := WriteJSON(cfg.JSONPath, id, all); err != nil {
			return err
		}
	}
	return nil
}

// benchDoc is the machine-readable experiment record written by WriteJSON:
// the run's tables plus the machine they were measured on.
type benchDoc struct {
	Experiment  string   `json:"experiment"`
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	Tables      []*Table `json:"tables"`
}

// WriteJSON writes the tables of one harness run as a single JSON document
// with enough machine context to compare runs over time.
func WriteJSON(path, experiment string, tables []*Table) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	doc := benchDoc{
		Experiment:  experiment,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Tables:      tables,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func idList() string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

// timeIt measures fn's wall time, repeating short runs until the total
// exceeds ~50 ms so fast points are not pure noise.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	if elapsed >= 50*time.Millisecond {
		return elapsed.Seconds()
	}
	reps := int(50*time.Millisecond/(elapsed+time.Nanosecond)) + 1
	start = time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start).Seconds() / float64(reps)
}

// sweep returns powers of two from lo to hi inclusive.
func sweep(lo, hi int) []int {
	var ts []int
	for t := lo; t <= hi; t *= 2 {
		ts = append(ts, t)
	}
	return ts
}

func secs(s float64) string { return fmt.Sprintf("%.4g", s) }
func num(v float64) string  { return fmt.Sprintf("%.6g", v) }
func count(v uint64) string { return fmt.Sprintf("%d", v) }
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

// fitExponent least-squares fits log2(y) = a + e*log2(x) and returns e.
func fitExponent(xs []int, ys []float64) float64 {
	n := 0
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if ys[i] <= 0 {
			continue
		}
		lx := math.Log2(float64(xs[i]))
		ly := math.Log2(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	return (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
}
