package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nlstencil/amop/internal/par"
)

// TestMain times one solve per testing.Benchmark sample unless the run asks
// for another -test.benchtime: these tests check what the experiments
// record, not how fast the solvers are, and the default of a second per
// sample would take minutes.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.benchtime" })
	if !set {
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// smokeCfg keeps every sweep tiny so the full suite runs in seconds.
func smokeCfg(out *bytes.Buffer, jsonPath string) Config {
	return Config{MaxT: 1 << 11, MaxQuadT: 1 << 11, MaxTraceT: 1 << 10, Out: out, JSONPath: jsonPath}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "all.json")
	var out bytes.Buffer
	if err := RunByID("all", smokeCfg(&out, path)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, id := range []string{"fig5a", "fig5b", "fig5c", "fig6a", "fig7a", "fig7f", "fig10c", "table5", "table2", "accuracy-agreement", "ablation-basecase"} {
		if !strings.Contains(text, id) {
			t.Errorf("output missing experiment %s", id)
		}
	}
	// The record holds every rendered table.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Tables []Table }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tables) < 15 {
		t.Errorf("expected >= 15 tables in the record, found %d", len(doc.Tables))
	}
	for _, tb := range doc.Tables {
		if h := strings.Join(tb.Header, ","); tb.ID == "fig5a" && !strings.HasPrefix(h, "T,fft-bopm,ql-bopm") {
			t.Errorf("fig5a header unexpected: %q", h)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := RunByID("nope", smokeCfg(&out, "")); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentsRegistered(t *testing.T) {
	want := map[string]bool{
		"fig5a": false, "fig5b": false, "fig5c": false,
		"fig6": false, "fig7": false, "fig10": false,
		"table5": false, "table2": false, "accuracy": false, "ablation": false,
	}
	for _, e := range Experiments() {
		if _, ok := want[e.ID]; ok {
			want[e.ID] = true
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

// TestTable5RestoresWorkerOverride runs table5 under a caller's worker
// override and checks the override is still in place afterwards.
func TestTable5RestoresWorkerOverride(t *testing.T) {
	prev := par.SetWorkers(3)
	defer par.SetWorkers(prev)
	var out bytes.Buffer
	if err := RunByID("table5", Config{MaxT: 1 << 8, Out: &out}); err != nil {
		t.Fatal(err)
	}
	if got := par.Workers(); got != 3 {
		t.Errorf("par.Workers() = %d after table5, want the caller's override 3", got)
	}
}

// TestWriteJSONRecordFields checks that a record names the machine and the
// build, and that every timed cell carries its median, IQR and sample count.
func TestWriteJSONRecordFields(t *testing.T) {
	if testing.Short() {
		t.Skip("timed experiments skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "paper.json")
	var out bytes.Buffer
	cfg := Config{MaxT: 1 << 12, MaxQuadT: 1 << 11, Out: &out, JSONPath: path}
	if err := RunByID("fig5a,table2,table5", cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		NumCPU *int    `json:"num_cpu"`
		Kernel *string `json:"kernel"`
		AMD64  *string `json:"goamd64"`
		FFT    *string `json:"fft_kernel"`
		Commit *string `json:"commit"`
		Tables []struct {
			ID    string
			Rows  [][]string
			Timed []map[string]any
		} `json:"tables"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.NumCPU == nil || *doc.NumCPU < 1 {
		t.Error("record lacks num_cpu")
	}
	for name, v := range map[string]*string{"kernel": doc.Kernel, "goamd64": doc.AMD64, "fft_kernel": doc.FFT, "commit": doc.Commit} {
		if v == nil {
			t.Errorf("record lacks %s", name)
		}
	}
	if doc.FFT != nil && *doc.FFT == "" || doc.Commit != nil && *doc.Commit == "" {
		t.Error("record has an empty fft_kernel or commit")
	}
	// fig5a times fft, ql and zb at T=2^11 and fft alone at 2^12; table2
	// its four work classes at 2^11; table5 two algorithms per worker count.
	seen := map[string]bool{}
	for _, tb := range doc.Tables {
		want := map[string]int{"fig5a": 4, "table2": 4, "table5": 2 * len(tb.Rows)}[tb.ID]
		seen[tb.ID] = true
		if len(tb.Timed) != want {
			t.Errorf("%s: %d timed cells, want %d", tb.ID, len(tb.Timed), want)
		}
		for _, c := range tb.Timed {
			med, _ := c["median_s"].(float64)
			iqr, hasIQR := c["iqr_s"].(float64)
			if med <= 0 || !hasIQR || iqr < 0 || c["samples"] != float64(samples) || c["row"] == "" || c["col"] == "" {
				t.Errorf("%s: timed cell %v lacks its place, a positive median, an IQR or %d samples", tb.ID, c, samples)
			}
		}
	}
	if len(seen) != 3 {
		t.Errorf("record holds tables %v, want fig5a, table2 and table5", seen)
	}
}

func TestFitExponent(t *testing.T) {
	// Perfect quadratic data fits exponent 2.
	xs := []int{256, 512, 1024, 2048}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = float64(x) * float64(x) * 3e-9
	}
	if e := fitExponent(xs, ys); e < 1.99 || e > 2.01 {
		t.Errorf("fitted exponent %v, want 2", e)
	}
}
