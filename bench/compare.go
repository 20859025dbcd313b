package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles applies the regression rule to two files of run records
// (base = the parent commit, head = the change) and prints one row per
// (workload, metric). Runs pair up by workload and seed. The exit code is 0
// when nothing regressed, 1 when a metric regressed, and 2 when the records
// cannot be compared.
func compareFiles(basePath, headPath string, stdout, stderr io.Writer) int {
	rows, err := compareRecordFiles(basePath, headPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: compare: %v\n", err)
		return 2
	}
	printRows(stdout, rows)
	for _, r := range rows {
		if r.verdict == "regression" {
			return 1
		}
	}
	return 0
}

func compareRecordFiles(basePath, headPath string) ([]compareRow, error) {
	base, err := readRecords(basePath)
	if err != nil {
		return nil, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return nil, err
	}
	return compareRecords(base, head)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// provenance is the part of the machine block two records must share to be
// comparable: the FFT kernel (AVX2 assembly or the portable one), the
// GOAMD64 level and the CPU count.
func provenance(m machine) string {
	return fmt.Sprintf("fft_kernel=%s goamd64=%s nproc=%d", m.FFTKernel, m.GOAMD64, m.NProc)
}

type compareRow struct {
	workload, metric string
	pairs, wins      int
	base, head       float64 // medians
	baseIQR          float64
	bound            float64 // allowed worsening, in the metric's unit
	verdict          string
}

// compareRecords compares the end-to-end metrics of the untraced runs; the
// traced runs' per-layer metrics carry no bound.
func compareRecords(base, head []record) ([]compareRow, error) {
	var prov string
	for _, set := range [][]record{base, head} {
		for _, r := range set {
			if !r.Machine.Valid {
				return nil, fmt.Errorf("%s seed %d is marked invalid: %s", r.Workload, r.Seed, r.Machine.Invalid)
			}
			p := provenance(r.Machine)
			if prov == "" {
				prov = p
			} else if p != prov {
				return nil, fmt.Errorf("refusing to compare runs from different machines: %s vs %s", prov, p)
			}
		}
	}
	type key struct{ workload, metric string }
	type series struct{ base, head map[int64]float64 }
	all := map[key]*series{}
	collect := func(recs []record, head bool) {
		for _, r := range recs {
			if r.Trace {
				continue
			}
			for _, v := range r.Metrics {
				if _, ok := lookupMetric(v.Name); !ok {
					continue
				}
				k := key{r.Workload, v.Name}
				s := all[k]
				if s == nil {
					s = &series{map[int64]float64{}, map[int64]float64{}}
					all[k] = s
				}
				if head {
					s.head[r.Seed] = v.Value
				} else {
					s.base[r.Seed] = v.Value
				}
			}
		}
	}
	collect(base, false)
	collect(head, true)
	var rows []compareRow
	for k, s := range all {
		if len(s.base) == 0 || len(s.head) == 0 {
			continue
		}
		d, _ := lookupMetric(k.metric)
		var b, h []float64
		var pairs [][2]float64
		for seed, bv := range s.base {
			b = append(b, bv)
			if hv, ok := s.head[seed]; ok {
				pairs = append(pairs, [2]float64{bv, hv})
			}
		}
		for _, hv := range s.head {
			h = append(h, hv)
		}
		row := judge(d, b, h, pairs)
		row.workload, row.metric = k.workload, k.metric
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no end-to-end metric appears in both files")
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows, nil
}

// judge applies the rule to one metric: a regression when head's median is
// worse than base's by more than the bound; a gain when head wins at least
// 9 of 10 seed-paired runs (and at least 10 pairs exist) and the medians
// differ by more than base's inter-quartile range; unchanged when every
// pair reads exactly the same; unresolved when base's own spread is wider
// than the bound, unless every head run beats every base run; unchanged
// otherwise.
func judge(d metricDef, base, head []float64, pairs [][2]float64) compareRow {
	r := compareRow{
		pairs: len(pairs), base: quantile(base, 0.5), head: quantile(head, 0.5),
		baseIQR: quantile(base, 0.75) - quantile(base, 0.25),
	}
	better := func(h, b float64) bool { return h < b }
	if d.higher {
		better = func(h, b float64) bool { return h > b }
	}
	ties := 0
	for _, p := range pairs {
		switch {
		case better(p[1], p[0]):
			r.wins++
		case p[1] == p[0]:
			ties++
		}
	}
	worse := r.head - r.base
	if d.higher {
		worse = -worse
	}
	r.bound = d.bound*math.Abs(r.base) + d.abs
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case worse > r.bound:
		r.verdict = "regression"
	case len(pairs) >= 10 && 10*r.wins >= 9*len(pairs) && -worse > r.baseIQR:
		r.verdict = "gain"
	case ties > 0 && ties == len(pairs):
		// Every seed reads exactly the same on both sides (max_abs_err is
		// a function of the seed's inputs): the spread across seeds says
		// nothing about this pairing.
		r.verdict = "unchanged"
	case r.baseIQR > r.bound && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "unchanged"
	}
	return r
}

func printRows(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-15s %-20s %5s %13s %13s %8s %10s %10s %s\n",
		"workload", "metric", "pairs", "base_median", "head_median", "delta", "base_iqr", "wins", "verdict")
	for _, r := range rows {
		delta := 100 * ratio(r.head-r.base, math.Abs(r.base))
		fmt.Fprintf(w, "%-15s %-20s %5d %13.6g %13.6g %+7.1f%% %10.4g %4d/%-5d %s\n",
			r.workload, r.metric, r.pairs, r.base, r.head, delta, r.baseIQR, r.wins, r.pairs, r.verdict)
	}
}
