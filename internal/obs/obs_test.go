package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := New("t")
	c := r.Counter("c")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("c") != c {
		t.Fatal("same name must return same counter")
	}
	g := r.Gauge("g")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	r.GaugeFunc("gf", func() int64 { return 42 })
	if got := r.GaugeValue("gf"); got != 42 {
		t.Fatalf("gauge func = %d, want 42", got)
	}
	if got := r.GaugeValue("g"); got != 3 {
		t.Fatalf("gauge value = %d, want 3", got)
	}
}

func TestNilInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.Histogram("x").ObserveSince(time.Now())
	r.StartSpan("x").End()
	r.ResetHistograms()
	r.SetTimingDisabled(true)
	if !r.Now().IsZero() {
		t.Fatal("nil registry Now must be zero")
	}
	if v := r.GaugeValue("x"); v != 0 {
		t.Fatalf("nil registry gauge = %d", v)
	}
	_ = r.Snapshot()
}

// TestNowOrdersWithTimeNow: Registry.Now reads only the monotonic clock,
// yet its readings order and subtract exactly against time.Now's.
func TestNowOrdersWithTimeNow(t *testing.T) {
	r := New("t")
	for i := 0; i < 100; i++ {
		before := time.Now()
		now := r.Now()
		after := time.Now()
		if now.Before(before) || after.Before(now) {
			t.Fatalf("Registry.Now %v outside [%v, %v]", now, before, after)
		}
		if d := after.Sub(now) + now.Sub(before); d != after.Sub(before) {
			t.Fatalf("durations through Registry.Now sum to %v, want %v", d, after.Sub(before))
		}
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000,
		1 << 20, 1<<20 + 1, 1 << 40, 1<<62 + 12345} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx >= histNumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		prev = idx
	}
	// Representative values stay within the bucket's relative error bound.
	for _, v := range []uint64{100, 10_000, 1_000_000, 123_456_789} {
		mid := bucketMid(bucketIndex(v))
		if relErr := math.Abs(float64(mid)-float64(v)) / float64(v); relErr > 0.04 {
			t.Fatalf("bucketMid(%d) = %d, rel err %.3f > 4%%", v, mid, relErr)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New("t")
	h := r.Histogram("lat")
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i) * 1000) // 1µs .. 1ms in µs steps
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	checks := []struct {
		q    float64
		want float64
	}{{0.50, 500_000}, {0.95, 950_000}, {0.99, 990_000}}
	for _, c := range checks {
		got := float64(h.Quantile(c.q))
		if math.Abs(got-c.want)/c.want > 0.05 {
			t.Errorf("q%.2f = %.0f, want within 5%% of %.0f", c.q, got, c.want)
		}
	}
	if h.Quantile(1.0) < h.Quantile(0.5) {
		t.Error("quantiles must be monotone")
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Error("reset did not zero the histogram")
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := New("t").Histogram("h")
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation: count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestHistogramConcurrentNoLoss drives many goroutines into one histogram
// and asserts no sample is lost — the property the enclave worker pool
// depends on. Run under -race via `go test -race ./internal/obs`.
func TestHistogramConcurrentNoLoss(t *testing.T) {
	r := New("t")
	h := r.Histogram("h")
	const workers = 16
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(seed + int64(i)%100)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("lost samples: count = %d, want %d", got, workers*perWorker)
	}
	var bucketTotal uint64
	for i := range h.buckets {
		bucketTotal += h.buckets[i].Load()
	}
	if bucketTotal != workers*perWorker {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*perWorker)
	}
}

func TestTimingDisabled(t *testing.T) {
	r := New("t")
	r.SetTimingDisabled(true)
	if !r.Now().IsZero() {
		t.Fatal("disabled registry must return zero Now")
	}
	h := r.Histogram("h")
	h.ObserveSince(r.Now())
	r.StartSpan("h").End()
	if h.Count() != 0 {
		t.Fatalf("disabled timing recorded %d samples", h.Count())
	}
	// Counters keep counting: shims (Enclave.Dump) rely on
	// them being correct regardless of the timing switch.
	r.Counter("c").Inc()
	if r.Counter("c").Value() != 1 {
		t.Fatal("counters must count while timing is disabled")
	}
	r.SetTimingDisabled(false)
	h.ObserveSince(r.Now())
	if h.Count() != 1 {
		t.Fatal("re-enabled timing must record")
	}
}

func TestSpan(t *testing.T) {
	r := New("t")
	sp := r.StartSpan("region")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	snap := r.Histogram("region").Snapshot()
	if snap.Count != 1 {
		t.Fatalf("span count = %d", snap.Count)
	}
	if snap.Max < int64(1*time.Millisecond) {
		t.Fatalf("span max = %dns, want >= 1ms", snap.Max)
	}
}

func TestSnapshotAndHTTP(t *testing.T) {
	r := New("snap")
	r.Counter("a.b").Add(7)
	r.Gauge("g").Set(-1)
	r.GaugeFunc("live", func() int64 { return 11 })
	r.Histogram("h").Observe(100)

	s := r.Snapshot()
	if s.Registry != "snap" || s.Counters["a.b"] != 7 || s.Gauges["g"] != -1 ||
		s.Gauges["live"] != 11 || s.Histograms["h"].Count != 1 {
		t.Fatalf("bad snapshot: %+v", s)
	}

	// Delta scoping.
	before := s
	r.Counter("a.b").Add(3)
	if d := CounterDelta(before, r.Snapshot(), "a.b"); d != 3 {
		t.Fatalf("delta = %d, want 3", d)
	}

	// JSON endpoint round-trips to the same values.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var decoded Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("endpoint JSON: %v", err)
	}
	if decoded.Counters["a.b"] != 10 || decoded.Histograms["h"].P50 == 0 {
		t.Fatalf("endpoint snapshot: %+v", decoded)
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := New("t")
	var wg sync.WaitGroup
	counters := make([]*Counter, 32)
	for i := range counters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("same")
			c.Inc()
			counters[i] = c
		}(i)
	}
	wg.Wait()
	for _, c := range counters {
		if c != counters[0] {
			t.Fatal("concurrent get-or-create returned different instruments")
		}
	}
	if counters[0].Value() != 32 {
		t.Fatalf("count = %d", counters[0].Value())
	}
}

// BenchmarkObserve documents the per-sample record cost — the number that
// keeps total obs overhead within the ≤2% TPC-C budget.
func BenchmarkObserve(b *testing.B) {
	h := New("b").Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkObserveSince includes the two clock reads a span pays.
func BenchmarkObserveSince(b *testing.B) {
	r := New("b")
	h := r.Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(r.Now())
	}
}
