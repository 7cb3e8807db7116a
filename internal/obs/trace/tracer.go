package trace

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Policy configures trace sampling.
//
// A trace is *recorded* whenever the tracer is enabled (so slow and failed
// statements can always be kept), but it is only *stored* if one of three
// keep rules fires at finish time:
//
//   - head sampling: kept with probability SampleRate, decided at start;
//   - always-sample-slow: wall time ≥ SlowThreshold (if > 0);
//   - always-sample-error: the statement returned an error.
type Policy struct {
	SampleRate    float64       // head-sampling probability in [0,1]
	SlowThreshold time.Duration // 0 disables the slow rule
	Capacity      int           // ring-buffer capacity (default 256)
}

// DefaultCapacity is the ring size used when Policy.Capacity is zero.
const DefaultCapacity = 256

// Tracer owns the sampling policy and the completed-trace ring. A nil
// *Tracer is valid and disabled: Start returns nil, and every method on a
// nil *Active is a no-op, so call sites never branch on tracing state.
type Tracer struct {
	headKeep uint64 // keep head-sampled if rng draw < headKeep
	slow     time.Duration
	store    *Store
	rng      atomic.Uint64
	pool     sync.Pool
}

// NewTracer builds an enabled tracer with the given policy.
func NewTracer(p Policy) *Tracer {
	cap := p.Capacity
	if cap <= 0 {
		cap = DefaultCapacity
	}
	t := &Tracer{slow: p.SlowThreshold, store: NewStore(cap)}
	switch {
	case p.SampleRate <= 0:
		t.headKeep = 0
	case p.SampleRate >= 1:
		t.headKeep = math.MaxUint64
	default:
		t.headKeep = uint64(p.SampleRate * float64(math.MaxUint64))
	}
	var seed [8]byte
	id := NewID()
	copy(seed[:], id[:8])
	t.rng.Store(binary.LittleEndian.Uint64(seed[:]) | 1)
	t.pool.New = func() any { return &Active{} }
	return t
}

// Store exposes the completed-trace ring (export endpoint, tests).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// draw advances a splitmix64-style PRNG shared by all sessions. Trace
// sampling needs speed and rough uniformity, not unpredictability.
func (t *Tracer) draw() uint64 {
	x := t.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Start begins recording a trace. id is the wire trace ID (a fresh one is
// minted when zero, so statements from old clients still trace). Returns
// nil when the tracer is nil/disabled; the nil *Active no-ops everywhere.
func (t *Tracer) Start(id ID, kind Kind) *Active {
	if t == nil {
		return nil
	}
	if id.IsZero() {
		id = NewID()
	}
	a := t.pool.Get().(*Active)
	a.tr = t
	a.headKeep = t.headKeep > 0 && t.draw() < t.headKeep
	a.start = time.Now()
	a.t.ID = id
	a.t.Link = ID{}
	a.t.Kind = kind
	a.t.Err = false
	a.t.Start = a.start
	a.t.Wall = 0
	a.t.Spans = a.t.Spans[:0]
	return a
}

// Active is an in-flight trace being built on one session goroutine. It is
// not safe for concurrent use; the statement lifecycle is single-threaded
// per session, which is exactly the scope of one Active.
type Active struct {
	tr       *Tracer
	headKeep bool
	start    time.Time
	t        Trace
}

// ID returns the trace ID (zero on a nil Active).
func (a *Active) ID() ID {
	if a == nil {
		return ID{}
	}
	return a.t.ID
}

// SetKind classifies the statement (closed enum; set once known).
func (a *Active) SetKind(k Kind) {
	if a != nil {
		a.t.Kind = k
	}
}

// SetLink marks the originating trace this one derives from (replica redo).
func (a *Active) SetLink(id ID) {
	if a != nil {
		a.t.Link = id
	}
}

// StartSpan opens a span. End it via the returned SpanRef; spans left
// unended are discarded at Finish.
func (a *Active) StartSpan(name string) SpanRef {
	if a == nil {
		return SpanRef{}
	}
	a.t.Spans = append(a.t.Spans, Span{Name: name, Start: time.Since(a.start), Dur: -1})
	return SpanRef{a: a, i: len(a.t.Spans) - 1}
}

// SpanRef is a handle to an open span on an Active. The zero SpanRef (from
// a nil Active) is a no-op.
type SpanRef struct {
	a *Active
	i int
}

// End closes the span.
func (s SpanRef) End() {
	if s.a == nil {
		return
	}
	sp := &s.a.t.Spans[s.i]
	sp.Dur = time.Since(s.a.start) - sp.Start
}

// Attr attaches a typed attribute to the span. int64 values only — the
// API has no string-valued variant by design (leakage contract).
func (s SpanRef) Attr(key string, v int64) {
	if s.a == nil {
		return
	}
	sp := &s.a.t.Spans[s.i]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: v})
}

// Finish completes the trace and applies the keep policy: head-sampled,
// slow (wall ≥ threshold) or errored traces go to the ring; everything
// else is recycled. Safe on nil.
func (a *Active) Finish(err error) {
	if a == nil {
		return
	}
	tr := a.tr
	a.t.Wall = time.Since(a.start)
	if err != nil {
		a.t.Err = true
	}
	// Drop spans never ended (panic paths): a span with Dur -1 would
	// export as nonsense.
	kept := a.t.Spans[:0]
	for _, sp := range a.t.Spans {
		if sp.Dur >= 0 {
			kept = append(kept, sp)
		}
	}
	a.t.Spans = kept

	keep := a.headKeep || a.t.Err || (tr.slow > 0 && a.t.Wall >= tr.slow)
	if keep {
		// The stored Trace gets its own exact-size copy of the spans, so
		// the Active — span buffer included — is recycled either way. The
		// attribute slices move with the spans: the next statement's
		// StartSpan starts each span with none.
		t := a.t
		t.Spans = append([]Span(nil), a.t.Spans...)
		tr.store.Add(&t)
	}
	a.tr = nil
	tr.pool.Put(a)
}
