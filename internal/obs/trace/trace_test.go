package trace

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	id := NewID()
	if id.IsZero() {
		t.Fatal("NewID returned zero ID")
	}
	got, err := ParseID(id.String())
	if err != nil || got != id {
		t.Fatalf("ParseID(%q) = %v, %v", id.String(), got, err)
	}
	if _, err := ParseID("zz"); err == nil {
		t.Fatal("ParseID accepted junk")
	}
	if _, err := IDFromBytes(nil); err != nil {
		t.Fatalf("empty wire ID must be valid (old clients): %v", err)
	}
	if _, err := IDFromBytes(make([]byte, 17)); !errors.Is(err, ErrBadID) {
		t.Fatal("oversized wire ID accepted")
	}
}

func TestKindEnumClosed(t *testing.T) {
	for k := KindUnknown; k <= KindRedo; k++ {
		name := k.String()
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("kind %d round trip via %q failed", k, name)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must render as unknown")
	}
	if _, ok := KindFromString("SELECT c FROM t"); ok {
		t.Fatal("free-form string accepted as kind")
	}
}

func TestStoreOverflowDropsOldest(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 10; i++ {
		s.Add(&Trace{ID: NewID()})
	}
	got := s.Drain()
	if len(got) != 4 {
		t.Fatalf("resident traces = %d, want 4", len(got))
	}
	// Oldest six were overwritten; the survivors are 7..10 in order.
	for i, tr := range got {
		if tr.Seq != uint64(7+i) {
			t.Fatalf("survivor %d has seq %d, want %d", i, tr.Seq, 7+i)
		}
	}
	if s.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", s.Dropped())
	}
	if s.Len() != 0 {
		t.Fatal("drain left residents behind")
	}
}

// Concurrent writers with a reader draining mid-write: every added trace is
// observed exactly once across drains, or accounted as dropped.
func TestStoreConcurrentDrain(t *testing.T) {
	s := NewStore(8)
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add(&Trace{ID: NewID()})
			}
		}()
	}
	seen := make(map[uint64]bool)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	collect := func() {
		for _, tr := range s.Drain() {
			if seen[tr.Seq] {
				t.Errorf("seq %d drained twice", tr.Seq)
			}
			seen[tr.Seq] = true
		}
	}
	for {
		select {
		case <-done:
			collect()
			total := uint64(len(seen)) + s.Dropped()
			if total != writers*perWriter {
				t.Fatalf("seen %d + dropped %d != %d added", len(seen), s.Dropped(), writers*perWriter)
			}
			return
		default:
			collect()
		}
	}
}

func TestSamplingZeroRateKeepsSlowAndError(t *testing.T) {
	tr := NewTracer(Policy{SampleRate: 0, SlowThreshold: time.Millisecond, Capacity: 16})

	// Fast, successful statement at rate 0: dropped.
	a := tr.Start(ID{}, KindSelect)
	a.Finish(nil)
	if n := tr.Store().Len(); n != 0 {
		t.Fatalf("fast clean trace kept at rate 0 (%d resident)", n)
	}

	// Errored statement: always kept.
	a = tr.Start(ID{}, KindInsert)
	a.Finish(errors.New("boom"))
	if n := tr.Store().Len(); n != 1 {
		t.Fatalf("errored trace not kept (%d resident)", n)
	}

	// Slow statement: always kept.
	a = tr.Start(ID{}, KindSelect)
	time.Sleep(2 * time.Millisecond)
	a.Finish(nil)
	got := tr.Store().Drain()
	if len(got) != 2 {
		t.Fatalf("slow trace not kept (%d resident)", len(got))
	}
	if !got[0].Err || got[0].Kind != KindInsert {
		t.Fatalf("first kept trace = %+v, want errored insert", got[0])
	}
	if got[1].Err || got[1].Wall < time.Millisecond {
		t.Fatalf("second kept trace = %+v, want slow clean select", got[1])
	}
}

func TestSamplingRateOneKeepsAll(t *testing.T) {
	tr := NewTracer(Policy{SampleRate: 1, Capacity: 64})
	for i := 0; i < 50; i++ {
		tr.Start(ID{}, KindSelect).Finish(nil)
	}
	if n := tr.Store().Len(); n != 50 {
		t.Fatalf("kept %d of 50 at rate 1", n)
	}
}

func TestSamplingRateIsApproximate(t *testing.T) {
	tr := NewTracer(Policy{SampleRate: 0.5, Capacity: 4096})
	const n = 4000
	for i := 0; i < n; i++ {
		tr.Start(ID{}, KindSelect).Finish(nil)
	}
	kept := tr.Store().Len()
	if kept < n/4 || kept > 3*n/4 {
		t.Fatalf("rate 0.5 kept %d of %d", kept, n)
	}
}

func TestNilTracerAndActiveAreNoOps(t *testing.T) {
	var tr *Tracer
	a := tr.Start(NewID(), KindSelect)
	if a != nil {
		t.Fatal("nil tracer started a trace")
	}
	// Every method must be callable on the nil Active.
	sp := a.StartSpan("exec")
	sp.Attr("rows", 3)
	sp.End()
	a.SetKind(KindDelete)
	a.SetLink(NewID())
	if !a.ID().IsZero() {
		t.Fatal("nil Active has an ID")
	}
	a.Finish(nil)
	if tr.Store() != nil {
		t.Fatal("nil tracer has a store")
	}
}

func TestSpansRecordOffsetsAndAttrs(t *testing.T) {
	tr := NewTracer(Policy{SampleRate: 1, Capacity: 4})
	a := tr.Start(ID{}, KindSelect)
	sp := a.StartSpan("enclave.crossing")
	sp.Attr("rows", 42)
	sp.Attr("ops.cmp", 84)
	sp.End()
	open := a.StartSpan("never.ended")
	_ = open
	a.Finish(nil)

	got := tr.Store().Drain()
	if len(got) != 1 {
		t.Fatalf("kept %d traces, want 1", len(got))
	}
	spans := got[0].Spans
	if len(spans) != 1 {
		t.Fatalf("unended span survived Finish: %+v", spans)
	}
	s := spans[0]
	if s.Name != "enclave.crossing" || s.Dur < 0 || s.Start < 0 {
		t.Fatalf("bad span %+v", s)
	}
	if len(s.Attrs) != 2 || s.Attrs[0] != (Attr{"rows", 42}) || s.Attrs[1] != (Attr{"ops.cmp", 84}) {
		t.Fatalf("bad attrs %+v", s.Attrs)
	}
	if got[0].Wall < s.Start+s.Dur {
		t.Fatalf("span extends past wall: wall=%v span end=%v", got[0].Wall, s.Start+s.Dur)
	}
}

func TestActiveRecycleDoesNotCorruptKeptTrace(t *testing.T) {
	tr := NewTracer(Policy{SampleRate: 1, Capacity: 8})
	a := tr.Start(ID{}, KindSelect)
	a.StartSpan("exec").End()
	a.Finish(nil)
	// A second statement on the same tracer must not scribble over the
	// stored first trace even if the Active was recycled.
	b := tr.Start(ID{}, KindUpdate)
	b.StartSpan("plan").End()
	b.StartSpan("exec").End()
	b.Finish(nil)
	got := tr.Store().Drain()
	if len(got) != 2 {
		t.Fatalf("kept %d, want 2", len(got))
	}
	if got[0].Kind != KindSelect || len(got[0].Spans) != 1 || got[0].Spans[0].Name != "exec" {
		t.Fatalf("first trace corrupted: %+v", got[0])
	}
}

func TestExportRoundTripAndValidation(t *testing.T) {
	tr := NewTracer(Policy{SampleRate: 1, Capacity: 8})
	a := tr.Start(NewID(), KindSelect)
	sp := a.StartSpan("exec")
	sp.Attr("rows", 7)
	sp.End()
	a.Finish(nil)
	link := NewID()
	b := tr.Start(NewID(), KindRedo)
	b.SetLink(link)
	b.StartSpan("redo.apply").End()
	b.Finish(errors.New("apply failed"))

	doc := Export(tr.Store().Drain())
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(back.Traces) != 2 {
		t.Fatalf("traces = %d", len(back.Traces))
	}
	if back.Traces[0].Kind != "select" || back.Traces[1].Kind != "redo" {
		t.Fatalf("kinds = %q, %q", back.Traces[0].Kind, back.Traces[1].Kind)
	}
	if back.Traces[1].Link != link.String() || !back.Traces[1].Err {
		t.Fatalf("redo trace lost link/err: %+v", back.Traces[1])
	}
	if back.Traces[0].Spans[0].Attrs["rows"] != 7 {
		t.Fatalf("attr lost: %+v", back.Traces[0].Spans[0])
	}

	// Structural rejections.
	for _, bad := range []string{
		`{"schema":"nope","traces":[]}`,
		`{"schema":"` + Schema + `","traces":[{"id":"xyz","kind":"select","wall_ns":1,"spans":[]}]}`,
		`{"schema":"` + Schema + `","traces":[{"id":"` + NewID().String() + `","kind":"SELECT * FROM t","wall_ns":1,"spans":[]}]}`,
	} {
		if _, err := Decode([]byte(bad)); err == nil {
			t.Fatalf("accepted invalid doc %s", bad)
		}
	}
	// String-valued attributes must fail to even unmarshal.
	strAttr := `{"schema":"` + Schema + `","traces":[{"id":"` + NewID().String() +
		`","kind":"select","wall_ns":1,"spans":[{"name":"exec","start_ns":0,"dur_ns":1,"attrs":{"q":"secret"}}]}]}`
	if _, err := Decode([]byte(strAttr)); err == nil || !strings.Contains(err.Error(), "decode export") {
		t.Fatalf("string attr survived decode: %v", err)
	}
}

// The enabled-but-unsampled hot path: one statement trace with a handful
// of spans that is then dropped. This is the per-statement cost the ≤2%
// TPC-C overhead budget rides on.
func BenchmarkUnsampledStatementTrace(b *testing.B) {
	tr := NewTracer(Policy{SampleRate: 0, Capacity: 64})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := tr.Start(ID{}, KindSelect)
		p := a.StartSpan("plan")
		p.End()
		e := a.StartSpan("exec")
		c := a.StartSpan("enclave.crossing")
		c.Attr("rows", 256)
		c.End()
		e.End()
		a.Finish(nil)
	}
}

// TestKeptTraceSurvivesActiveReuse: a kept trace owns its spans. Finish
// recycles the Active with its span buffer, and the statements after it
// — which draw that Active from the pool again — must not change a stored
// span's name, offsets or attributes.
func TestKeptTraceSurvivesActiveReuse(t *testing.T) {
	tr := NewTracer(Policy{SampleRate: 1, Capacity: 8})
	a := tr.Start(ID{}, KindSelect)
	for i, name := range []string{"plan", "exec", "enclave.crossing"} {
		sp := a.StartSpan(name)
		sp.Attr("rows", int64(10+i))
		sp.End()
	}
	a.Finish(nil)
	stored := tr.Store().Snapshot()[0]
	want := make([]Span, len(stored.Spans))
	for i, sp := range stored.Spans {
		want[i] = sp
		want[i].Attrs = append([]Attr(nil), sp.Attrs...)
	}

	for i := 0; i < 4; i++ {
		b := tr.Start(ID{}, KindUpdate)
		for j := 0; j < 5; j++ {
			sp := b.StartSpan("other")
			sp.Attr("n", int64(j))
			sp.End()
		}
		b.Finish(nil)
	}
	if !reflect.DeepEqual(stored.Spans, want) {
		t.Fatalf("stored spans changed after the Active was reused:\n got %+v\nwant %+v", stored.Spans, want)
	}
}

// A kept statement trace of seven spans: the cost every statement of a
// fully sampled run (the traced benchmark keeps them all) pays on top of
// the unsampled path.
func BenchmarkTracerFinishKept(b *testing.B) {
	tr := NewTracer(Policy{SampleRate: 1, Capacity: 64})
	names := []string{"lex", "parse", "bind", "plan", "exec", "enclave.crossing", "wal.commit"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := tr.Start(ID{}, KindSelect)
		for _, name := range names {
			a.StartSpan(name).End()
		}
		a.Finish(nil)
	}
}
