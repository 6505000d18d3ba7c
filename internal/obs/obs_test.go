package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCollectorCountersAndGauges(t *testing.T) {
	c := NewCollector()
	c.Count("a.evals", 3)
	c.Count("a.evals", 4)
	c.Gauge("a.bound", 2.5)
	c.Gauge("a.bound", 7.5) // gauges keep the latest value

	if got := c.CounterValue("a.evals"); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if v, ok := c.GaugeValue("a.bound"); !ok || v != 7.5 {
		t.Errorf("gauge = %v,%v, want 7.5,true", v, ok)
	}
	if _, ok := c.GaugeValue("missing"); ok {
		t.Error("missing gauge reported as set")
	}
	if got := c.CounterValue("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
}

func TestCollectorHistogram(t *testing.T) {
	c := NewCollector()
	for _, v := range []float64{1, 2, 4, 0.5, 1024} {
		c.Observe("x", v)
	}
	s := c.Snapshot()
	d, ok := s.Observations["x"]
	if !ok {
		t.Fatal("no observation recorded")
	}
	if d.Count != 5 {
		t.Errorf("count = %d, want 5", d.Count)
	}
	if d.Sum != 1031.5 {
		t.Errorf("sum = %g, want 1031.5", d.Sum)
	}
	if d.Min != 0.5 || d.Max != 1024 {
		t.Errorf("min/max = %g/%g, want 0.5/1024", d.Min, d.Max)
	}
	if got := d.Mean(); got != 1031.5/5 {
		t.Errorf("mean = %g, want %g", got, 1031.5/5)
	}
	// Bucket sanity: upper edges are powers of two (times histBase),
	// each sample in a bucket whose edge is >= the value.
	var total int64
	for _, b := range d.Buckets {
		total += b.Count
		if b.Le < d.Min {
			t.Errorf("bucket edge %g below min %g", b.Le, d.Min)
		}
	}
	if total != d.Count {
		t.Errorf("bucket total = %d, want %d", total, d.Count)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{histBase, 0},
		{histBase * 2, 1},
		{histBase * 3, 2},
		{histBase * 4, 2},
		{1, 30}, // 1s: 2^30 ns ≈ 1.07s
		{math.MaxFloat64, histBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Edge invariant: every value lands in a bucket whose upper edge
	// covers it.
	for _, v := range []float64{1e-9, 3e-7, 0.004, 1.5, 900} {
		i := bucketOf(v)
		edge := histBase * math.Pow(2, float64(i))
		if v > edge*(1+1e-12) {
			t.Errorf("value %g above its bucket edge %g", v, edge)
		}
	}
}

func TestNilSinkHelpersAreNoops(t *testing.T) {
	// Must not panic, must not allocate observable state.
	Count(nil, "x", 1)
	Gauge(nil, "x", 1)
	Observe(nil, "x", 1)
	ObserveSince(nil, "x", time.Now())
	ObserveDuration(nil, "x", time.Second)
	sp := StartSpan(nil, "x")
	sp.End()
	var zero Span
	zero.End()
}

func TestSpanObservesSeconds(t *testing.T) {
	c := NewCollector()
	sp := StartSpan(c, "phase")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	d, ok := c.Snapshot().Observations["phase.seconds"]
	if !ok || d.Count != 1 {
		t.Fatalf("span not recorded: %+v", d)
	}
	if d.Sum < 0.002 {
		t.Errorf("span duration %gs, want >= 2ms", d.Sum)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Count("n", 1)
				c.Observe("d", float64(i))
				c.Gauge("g", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.CounterValue("n"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if d := c.Snapshot().Observations["d"]; d.Count != 8000 {
		t.Errorf("observations = %d, want 8000", d.Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	c.Count("core.collapse.evals", 42)
	c.Gauge("core.bound.lower", 614)
	c.Observe("core.prune.seconds", 0.085)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["core.collapse.evals"] != 42 {
		t.Errorf("round-tripped counter = %d", s.Counters["core.collapse.evals"])
	}
	if s.Gauges["core.bound.lower"] != 614 {
		t.Errorf("round-tripped gauge = %g", s.Gauges["core.bound.lower"])
	}
	if s.Observations["core.prune.seconds"].Count != 1 {
		t.Error("round-tripped observation missing")
	}
	want := []string{"core.bound.lower", "core.collapse.evals", "core.prune.seconds"}
	got := s.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if s.Empty() {
		t.Error("snapshot reported empty")
	}
	if !(&Snapshot{}).Empty() {
		t.Error("zero snapshot reported non-empty")
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	c.Count("x", 1)
	c.Observe("y", 1)
	c.Gauge("z", 1)
	c.Reset()
	if !c.Snapshot().Empty() {
		t.Error("reset collector not empty")
	}
}
