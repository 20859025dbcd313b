package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Log-linear bucketing, HdrHistogram style: values below histSub are their
// own buckets, and every further octave is split into histSub sub-buckets by
// the mantissa's top bits. With histSub = 8 the relative quantization error
// is bounded by 1/8 = 12.5% anywhere in the 64-bit range — ample for latency
// quantiles — while keeping the whole histogram at histBuckets fixed atomic
// cells: recording is one bit-scan, one shift and one atomic add, with no
// allocation and no lock.
const (
	histSub     = 8 // sub-buckets per octave; must be a power of two
	histSubLog  = 3 // log2(histSub)
	histBuckets = (64 - histSubLog) * histSub
)

// bucketIndex maps a non-negative value to its bucket. Values are clamped at
// zero; the top bucket absorbs everything beyond ~2^63.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - histSubLog
	idx := exp*histSub + int(u>>uint(exp))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketMid returns a representative value for the bucket: the midpoint of
// its [lower, upper) range, which bounds quantile error by half the bucket
// width.
func bucketMid(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	exp := idx/histSub - 1
	mant := int64(idx - exp*histSub)
	lo := mant << uint(exp)
	return lo + (int64(1)<<uint(exp))/2
}

// Histogram is a lock-free log-bucketed histogram of int64 values
// (nanoseconds, by convention: every standing instrument records durations).
// Record is wait-free and allocation-free; Snapshot walks the buckets on the
// monitoring path. The zero value is NOT ready — use NewHistogram, which
// also registers the instrument for WriteProm.
type Histogram struct {
	name string
	help string

	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram creates and registers a named histogram. name is the
// Prometheus metric name (unit: seconds — values are recorded in
// nanoseconds and scaled on export).
func NewHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	register(h)
	return h
}

// newBareHistogram creates a histogram that is not registered — HistVec
// children render through their vector, not individually.
func newBareHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Record adds one value. It does not consult Enabled — call sites gate
// before doing the work of producing the value (usually a time.Now pair).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordSince records the duration elapsed since start. The idiomatic call
// site is a gated defer — `defer h.RecordSince(time.Now())` evaluates
// time.Now at defer time and records at return.
func (h *Histogram) RecordSince(start time.Time) {
	h.Record(int64(time.Since(start)))
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count int64
	Sum   int64 // total of recorded values (ns)
	Max   int64 // largest recorded value (ns)
	P50   int64 // quantiles, bucket-midpoint resolution (ns)
	P90   int64
	P99   int64
}

// Snapshot summarizes the histogram. Concurrent Records may land between
// bucket loads; the summary is consistent to within those in-flight counts,
// which is the standard contract for lock-free telemetry.
func (h *Histogram) Snapshot() Snapshot {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	s := Snapshot{Count: total, Sum: h.sum.Load(), Max: h.max.Load()}
	if total == 0 {
		return s
	}
	quantile := func(q float64) int64 {
		rank := int64(q * float64(total))
		if rank >= total {
			rank = total - 1
		}
		var seen int64
		for i := range counts {
			seen += counts[i]
			if seen > rank {
				return bucketMid(i)
			}
		}
		return bucketMid(histBuckets - 1)
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	return s
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

func (h *Histogram) writeProm(w io.Writer) {
	s := h.Snapshot()
	if s.Count == 0 {
		return
	}
	writeHeader(w, h.name, h.help, "summary")
	writePromSeries(w, h.name, "", s)
}

// writePromSeries emits one label-set's quantile/sum/count/max series.
// labels is either empty or a rendered `name="value"` pair.
func writePromSeries(w io.Writer, name, labels string, s Snapshot) {
	sep := func(q string) string {
		if labels == "" {
			return fmt.Sprintf("{quantile=%q}", q)
		}
		return fmt.Sprintf("{%s,quantile=%q}", labels, q)
	}
	brace := ""
	if labels != "" {
		brace = "{" + labels + "}"
	}
	for _, qv := range []struct {
		q string
		v int64
	}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}} {
		fmt.Fprintf(w, "%s%s ", name, sep(qv.q))
		fprintSeconds(w, qv.v)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s_sum%s ", name, brace)
	fprintSeconds(w, s.Sum)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s_count%s %d\n", name, brace, s.Count)
	fmt.Fprintf(w, "%s_max%s ", name, brace)
	fprintSeconds(w, s.Max)
	fmt.Fprintln(w)
}

// HistVec is a labeled family of histograms — one child per label value
// (symbol, tier). The steady-state Record path is a read-locked map hit plus
// the child's lock-free record: no allocation once a label has been seen.
// Label cardinality is expected to be book-bounded (symbols, tiers); the
// vector grows one child per distinct label and never evicts.
type HistVec struct {
	name      string
	labelName string
	help      string

	mu sync.RWMutex
	m  map[string]*Histogram
}

// NewHistVec creates and registers a labeled histogram family.
func NewHistVec(name, labelName, help string) *HistVec {
	v := &HistVec{name: name, labelName: labelName, help: help, m: make(map[string]*Histogram)}
	register(v)
	return v
}

// With returns the child histogram for a label value, creating it on first
// use. The hit path takes only the read lock and allocates nothing.
func (v *HistVec) With(label string) *Histogram {
	v.mu.RLock()
	h := v.m[label]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.m[label]; h == nil {
		h = newBareHistogram(v.name)
		v.m[label] = h
	}
	return h
}

// Record adds one value to the label's child.
func (v *HistVec) Record(label string, val int64) { v.With(label).Record(val) }

// RecordSince records the elapsed duration into the label's child.
func (v *HistVec) RecordSince(label string, start time.Time) {
	v.With(label).Record(int64(time.Since(start)))
}

// Labels returns the label values seen so far, sorted.
func (v *HistVec) Labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.m))
	for l := range v.m {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func (v *HistVec) reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, h := range v.m {
		h.reset()
	}
}

func (v *HistVec) writeProm(w io.Writer) {
	type child struct {
		label string
		h     *Histogram
	}
	v.mu.RLock()
	children := make([]child, 0, len(v.m))
	for l, h := range v.m {
		children = append(children, child{l, h})
	}
	v.mu.RUnlock()
	sort.Slice(children, func(i, j int) bool { return children[i].label < children[j].label })
	wroteHeader := false
	for _, c := range children {
		s := c.h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if !wroteHeader {
			writeHeader(w, v.name, v.help, "summary")
			wroteHeader = true
		}
		writePromSeries(w, v.name, fmt.Sprintf("%s=%q", v.labelName, c.label), s)
	}
}
