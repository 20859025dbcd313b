package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeCfg keeps every sweep tiny so the full suite runs in seconds.
func smokeCfg(out *bytes.Buffer, dir string) Config {
	return Config{MaxT: 1 << 11, MaxQuadT: 1 << 11, MaxTraceT: 1 << 10, Out: out, OutDir: dir}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunByID("all", smokeCfg(&out, dir)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, id := range []string{"fig5a", "fig5b", "fig5c", "fig6a", "fig7a", "fig7f", "fig10c", "table5", "table2", "accuracy-agreement", "ablation-basecase"} {
		if !strings.Contains(text, id) {
			t.Errorf("output missing experiment %s", id)
		}
	}
	// CSVs written for every rendered table.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 15 {
		t.Errorf("expected >= 15 CSV files, found %d", len(files))
	}
	b, err := os.ReadFile(filepath.Join(dir, "fig5a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "T,fft-bopm,ql-bopm") {
		t.Errorf("fig5a.csv header unexpected: %q", strings.SplitN(string(b), "\n", 2)[0])
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

// TestTimeItDivisor pins timeIt's average to the calls it timed: a sleeping
// fn measures its own durations, and the mean over the timed repetitions
// (every call after the first, which only sizes the loop) can be no larger
// than timeIt's figure, which also carries the loop's overhead. Dividing by
// one more call than ran would undercut it by a whole call.
func TestTimeItDivisor(t *testing.T) {
	var calls []time.Duration
	fn := func() {
		start := time.Now()
		time.Sleep(5 * time.Millisecond)
		calls = append(calls, time.Since(start))
	}
	got := timeIt(fn)
	timed := calls[1:]
	if len(timed) == 0 {
		t.Skip("first call exceeded the repetition threshold")
	}
	var sum time.Duration
	for _, d := range timed {
		sum += d
	}
	if mean := sum.Seconds() / float64(len(timed)); got < mean {
		t.Fatalf("timeIt = %.3g s over %d timed calls, below their own mean %.3g s", got, len(timed), mean)
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
