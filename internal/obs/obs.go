// Package obs is the repo's observability layer: atomic counters and gauges,
// lock-cheap latency histograms, and lightweight spans behind a named
// registry. It exists because the paper's central performance claims (§4.6,
// Figures 8–9) are about where time goes — enclave boundary crossings, the
// submit-queue spin/sleep tradeoff, per-transaction TPC-C latency — and
// those can only be argued from measurements taken inside the system.
//
// Design constraints:
//
//   - stdlib only, race free: every record path is a handful of atomic
//     operations; no instrument ever takes a lock after construction. The
//     registry's own mutex guards only instrument creation and snapshots.
//   - trust-boundary safe: instruments carry counts, durations and sizes —
//     never key material or plaintext. The obsleak aelint analyzer enforces
//     this statically for the enclave-side packages.
//   - cheap when quiet: time-based instruments (histogram observation via
//     spans) can be disabled per registry; counters and gauges always count,
//     because compatibility shims (BufferPool.Stats, Enclave.Dump) read
//     through them.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named set of instruments. Instrument getters create on first
// use and return the same instance for the same name thereafter, so
// concurrent components share one series per name.
type Registry struct {
	name string

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram

	// timingOff disables time-based instruments (spans / Now): counters and
	// gauges still count. Used by the overhead benchmark to measure the cost
	// of timing itself.
	timingOff atomic.Bool
}

// New creates an empty registry.
func New(name string) *Registry {
	return &Registry{
		name:       name,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Default is the process-wide registry used by components that were not
// handed an explicit one.
var Default = New("default")

// Name returns the registry name.
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// SetTimingDisabled turns time-based instruments off (true) or on (false).
func (r *Registry) SetTimingDisabled(off bool) {
	if r != nil {
		r.timingOff.Store(off)
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated at snapshot time. It suits values
// that already have an authoritative live source (map sizes under a lock):
// the registry stays the single reporting path without duplicating state.
// The callback must be safe to invoke from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// GaugeValue evaluates the named gauge: a GaugeFunc if registered, otherwise
// the plain gauge value (0 if absent).
func (r *Registry) GaugeValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	fn := r.gaugeFuncs[name]
	g := r.gauges[name]
	r.mu.RUnlock()
	if fn != nil {
		return fn()
	}
	if g != nil {
		return g.Value()
	}
	return 0
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(r)
		r.hists[name] = h
	}
	return h
}

// Now returns the current time, or the zero time when timing is disabled (or
// the registry is nil). Pair with Histogram.ObserveSince, which ignores zero
// starts, so a disabled registry pays neither the clock read nor the record.
// The time is read from the monotonic clock alone (see monoNow).
func (r *Registry) Now() time.Time {
	if r == nil || r.timingOff.Load() {
		return time.Time{}
	}
	return monoNow()
}

// clockBase anchors monoNow.
var clockBase = time.Now()

// monoNow is time.Now for a start that is only ever subtracted from: one
// read of the monotonic clock, offset from clockBase, where time.Now reads
// the wall clock too (about 40 ns instead of 65 on a 2-vCPU x86 host, once
// per timed span). Durations between its readings, and between one of them
// and time.Now, are exact; its wall part drifts from the system clock when
// that is stepped, and nothing reads it.
func monoNow() time.Time { return clockBase.Add(time.Since(clockBase)) }

// StartSpan opens a span recording into the named histogram on End. This
// form does a registry map lookup per call; hot paths cache the
// *Histogram at construction and use Histogram.StartSpan (or Registry.Now
// + Histogram.ObserveSince where recording is conditional).
func (r *Registry) StartSpan(name string) Span {
	if r == nil || r.timingOff.Load() {
		return Span{}
	}
	return Span{h: r.Histogram(name), start: monoNow()}
}

// ResetHistograms zeroes every histogram in the registry (counters and
// gauges keep counting). The TPC-C harness calls it at the start of a
// measurement window so reported percentiles cover exactly that window.
// Samples recorded concurrently with the reset may be partially lost; that
// is acceptable at a window boundary.
func (r *Registry) ResetHistograms() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, h := range r.hists {
		h.Reset()
	}
}

// Span measures one region of code into a histogram.
type Span struct {
	h     *Histogram
	start time.Time
}

// End records the elapsed time. A zero Span, or one opened while timing
// was disabled (zero start time), is a no-op.
func (s Span) End() {
	if s.h != nil && !s.start.IsZero() {
		s.h.Observe(time.Since(s.start).Nanoseconds())
	}
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op (disabled instrument).
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
