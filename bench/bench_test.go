package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/nlstencil/amop"
)

func tinyConfig(workload string, seed int64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 0.2, trace: trace, tiny: true}
}

// TestWorkloadsTiny runs every workload at test size, end to end and
// traced, and checks that each reports every metric it must and passes its
// correctness checks.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := tinyConfig(w.name, 1, trace)
			out, err := runWorkload(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			rec := newRecord(c, out)
			if !rec.Correct {
				t.Errorf("%s trace=%v: not correct: failed=%d %v", w.name, trace, rec.Failed, rec.Problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			line, err := json.Marshal(rec.result())
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Attempted int `json:"attempted"`
				Metrics   map[string]struct {
					Value float64
					Unit  string
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: attempted=%d, %d metrics, want %d", w.name, trace, res.Attempted, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// inputs returns everything a workload generates from its seed.
func inputs(t *testing.T, workload string, seed int64) any {
	c := tinyConfig(workload, seed, false)
	switch workload {
	case "lattice-deep":
		w := newLatticeDeep(c)
		for i := 0; i < 10; i++ {
			w.input(i)
		}
		return []any{w.base, w.strikes}
	case "chain-lattice", "chain-analytic":
		w := newChainSurface(c, amop.TierLattice)
		for i := 0; i < 10; i++ {
			w.market(i)
		}
		return []any{w.base, w.strikes, w.markets}
	case "sweep-grid":
		w := newSweepGrid(c)
		for i := 0; i < 10; i++ {
			w.market(i)
		}
		return w.markets
	case "serve-replay":
		w := newServeReplay(c)
		return []any{w.book, w.schedule(time.Second)}
	}
	t.Fatalf("no inputs for %s", workload)
	return nil
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, other := inputs(t, w.name, 7), inputs(t, w.name, 7), inputs(t, w.name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: different seeds gave the same inputs", w.name)
		}
	}
}

// TestTracedWorkCountsRepeat checks that the traced run's work counts are
// a property of the code and the seed alone: two runs at p=1 agree exactly.
func TestTracedWorkCountsRepeat(t *testing.T) {
	for workload, metric := range map[string]string{
		"lattice-deep":  "fft.transforms",
		"chain-lattice": "batch.memo_hits",
		"sweep-grid":    "scenario.unique_repricings",
		"serve-replay":  "serve.tick_skips",
	} {
		var got []float64
		for run := 0; run < 2; run++ {
			out, err := runWorkload(tinyConfig(workload, 3, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range out.metrics.vals {
				if v.Name == metric {
					got = append(got, v.Value)
				}
			}
		}
		if len(got) != 2 || got[0] != got[1] || got[0] == 0 {
			t.Errorf("%s %s: runs gave %v, want two equal non-zero counts", workload, metric, got)
		}
	}
}

func synthetic(workload string, seed int64, m machine, vals map[string]float64) record {
	r := record{Workload: workload, Seed: seed, Machine: m, Correct: true, Attempted: 1}
	for k, v := range vals {
		r.Metrics = append(r.Metrics, value{Name: k, Value: v})
	}
	return r
}

var testMachine = machine{NProc: 2, GOMAXPROCS: 2, GOAMD64: "v1", FFTKernel: "avx2", Valid: true}

// runs builds ten seeded records whose latency is base + step*seed.
func runs(base, step float64, m machine) []record {
	var rs []record
	for s := int64(1); s <= 10; s++ {
		rs = append(rs, synthetic("w", s, m, map[string]float64{"latency_p50_ms": base + step*float64(s)}))
	}
	return rs
}

func verdictOf(t *testing.T, base, head []record) string {
	t.Helper()
	rows, err := compareRecords(base, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	return rows[0].verdict
}

func TestCompareVerdicts(t *testing.T) {
	base := runs(100, 0.2, testMachine) // median 101.1, IQR 0.9, bound 25.3
	for _, tc := range []struct {
		name string
		head []record
		want string
	}{
		{"same", runs(100, 0.2, testMachine), "unchanged"},
		{"slower within bound", runs(120, 0.2, testMachine), "unchanged"},
		{"slower beyond bound", runs(130, 0.2, testMachine), "regression"},
		{"faster on every pair", runs(95, 0.2, testMachine), "gain"},
		{"faster by less than the spread", runs(99.5, 0.2, testMachine), "unchanged"},
	} {
		if got := verdictOf(t, base, tc.head); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	// A base whose own spread exceeds the bound cannot show "unchanged".
	wide := runs(50, 10, testMachine)
	if got := verdictOf(t, wide, runs(51, 10, testMachine)); got != "unresolved" {
		t.Errorf("wide spread: verdict %s, want unresolved", got)
	}
	// Identical pairs are unchanged even when the seeds themselves spread.
	var exact, exactHead []record
	for s := int64(1); s <= 10; s++ {
		exact = append(exact, synthetic("w", s, testMachine, map[string]float64{"max_abs_err": 1e-4 * float64(s)}))
		exactHead = append(exactHead, synthetic("w", s, testMachine, map[string]float64{"max_abs_err": 1e-4 * float64(s)}))
	}
	if got := verdictOf(t, exact, exactHead); got != "unchanged" {
		t.Errorf("identical per-seed values: verdict %s, want unchanged", got)
	}
	// Fewer than ten pairs never claim a gain.
	if got := verdictOf(t, base[:5], runs(90, 0.2, testMachine)[:5]); got == "gain" {
		t.Errorf("five pairs claimed a gain")
	}
	// error_rate tolerates no increase at all.
	zero := []record{synthetic("w", 1, testMachine, map[string]float64{"error_rate": 0})}
	some := []record{synthetic("w", 1, testMachine, map[string]float64{"error_rate": 0.001})}
	if got := verdictOf(t, zero, some); got != "regression" {
		t.Errorf("error_rate 0 -> 0.001: verdict %s, want regression", got)
	}
}

func TestCompareProvenance(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*machine)
	}{
		{"fft kernel", func(m *machine) { m.FFTKernel = "generic" }},
		{"GOAMD64", func(m *machine) { m.GOAMD64 = "v3" }},
		{"nproc", func(m *machine) { m.NProc, m.GOMAXPROCS = 4, 4 }},
		{"GOMAXPROCS above nproc", func(m *machine) { m.GOMAXPROCS, m.Valid = 4, false }},
	} {
		m := testMachine
		tc.edit(&m)
		if _, err := compareRecords(runs(100, 1, testMachine), runs(100, 1, m)); err == nil {
			t.Errorf("%s differs: compare accepted the records", tc.name)
		}
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs []record) string {
		var b strings.Builder
		for _, r := range rs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", runs(100, 0.2, testMachine))
	var out, errOut strings.Builder
	if code := run([]string{"-compare", base, write("same", runs(100, 0.2, testMachine))}, &out, &errOut); code != 0 {
		t.Errorf("unchanged: exit %d: %s", code, errOut.String())
	}
	if code := run([]string{"-compare", base, write("slow", runs(130, 0.2, testMachine))}, &out, &errOut); code != 1 {
		t.Errorf("regression: exit %d, want 1", code)
	}
	if code := run([]string{"-compare", base, dir + "/missing"}, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	if code := run([]string{"-workload", "lattice-deep", "-trace", "2"}, &out, &errOut); code != 2 {
		t.Errorf("-trace 2: exit %d, want 2", code)
	}
	if code := run([]string{"-workload", "nope", "-seconds", "0.1"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the metric and workload tables here.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
