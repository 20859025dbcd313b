package obs

import (
	"strings"
	"testing"
)

// Counters and gauges render through WriteProm under their own HELP and
// TYPE lines, zeros included, and Reset leaves counters cumulative.
func TestCounterGaugeProm(t *testing.T) {
	c := NewCounter("amop_test_events_total", "test events")
	level := int64(7)
	NewGauge("amop_test_level", "test level", func() int64 { return level })

	var b strings.Builder
	WriteProm(&b)
	for _, want := range []string{
		"# HELP amop_test_events_total test events\n# TYPE amop_test_events_total counter\namop_test_events_total 0\n",
		"# HELP amop_test_level test level\n# TYPE amop_test_level gauge\namop_test_level 7\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, b.String())
		}
	}

	c.Add(3)
	Reset()
	level = 9
	if got := c.Load(); got != 3 {
		t.Errorf("counter reads %d after Reset, want 3", got)
	}
	b.Reset()
	WriteProm(&b)
	for _, want := range []string{"\namop_test_events_total 3\n", "\namop_test_level 9\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, b.String())
		}
	}
}
