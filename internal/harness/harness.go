// Package harness runs the reproduction experiments: one entry per table and
// figure of the paper's evaluation (Section 5 and the appendix), producing
// aligned-text tables and an optional JSON record.
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
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/nlstencil/amop/internal/fft"
)

// Config controls experiment sweeps.
type Config struct {
	MaxT      int       // cap for fast-algorithm sweep sizes
	MaxQuadT  int       // cap for quadratic baselines' wall-clock runs
	MaxTraceT int       // cap for traced (simulated) runs
	JSONPath  string    // when non-empty, write all tables as one JSON document here
	Out       io.Writer // rendered tables; nil means standard output
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
	Timed  []TimedCell `json:",omitempty"` // the timing behind each timed cell of Rows
}

// TimedCell is the timing behind the cell of a table's Rows in the row
// labelled Row (its first cell) and the column headed Col.
type TimedCell struct {
	Row string `json:"row"`
	Col string `json:"col"`
	Timing
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

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

// registry is filled by the init functions of the experiments' files.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunByID runs the experiments id names (one ID, a comma-separated list,
// or "all"), rendering tables and writing the JSON record per the config.
func RunByID(id string, cfg Config) error {
	if cfg.Out == nil {
		cfg.Out = os.Stdout
	}
	var run []Experiment
	for _, one := range strings.Split(id, ",") {
		n := len(run)
		for _, e := range Experiments() {
			if one == "all" || e.ID == one {
				run = append(run, e)
			}
		}
		if len(run) == n {
			return fmt.Errorf("harness: unknown experiment %q (amop-bench -list prints the IDs)", one)
		}
	}
	var all []*Table
	for _, e := range run {
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		for _, t := range tables {
			t.Render(cfg.Out)
		}
		all = append(all, tables...)
	}
	if cfg.JSONPath != "" {
		if err := WriteJSON(cfg.JSONPath, id, all); err != nil {
			return err
		}
	}
	return nil
}

// benchDoc is the machine-readable experiment record written by WriteJSON:
// the run's tables plus the machine and the build they were measured on.
type benchDoc struct {
	Experiment  string   `json:"experiment"`
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	Kernel      string   `json:"kernel"`
	GOAMD64     string   `json:"goamd64"`
	FFTKernel   string   `json:"fft_kernel"`
	Commit      string   `json:"commit"`
	Tables      []*Table `json:"tables"`
}

// WriteJSON writes the tables of one harness run as a single JSON document
// with enough machine context to compare runs over time. The commit and
// GOAMD64 come from the binary's build info: a binary made by go build
// inside the repository carries them, one made by go run or go test records
// the commit as "unknown".
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
		Kernel:      "unknown",
		FFTKernel:   fft.KernelName(),
		Commit:      "unknown",
		Tables:      tables,
	}
	// Linux names its release here; elsewhere the kernel stays unknown.
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		doc.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, st := range bi.Settings {
			switch st.Key {
			case "GOAMD64":
				doc.GOAMD64 = st.Value
			case "vcs.revision":
				doc.Commit = st.Value
			case "vcs.modified":
				dirty = st.Value == "true"
			}
		}
		if dirty {
			doc.Commit += "-dirty"
		}
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// powersOf2 returns powers of two from lo to hi inclusive.
func powersOf2(lo, hi int) []int {
	var ts []int
	for t := lo; t <= hi; t *= 2 {
		ts = append(ts, t)
	}
	return ts
}

// percentile returns the nearest-rank p-quantile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}

// pow2 writes a power of two T as 2^k.
func pow2(T int) string { return fmt.Sprintf("2^%d", bits.TrailingZeros(uint(T))) }

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
