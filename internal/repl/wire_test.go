package repl

import (
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"alwaysencrypted/internal/storage"
	"alwaysencrypted/internal/tds"
)

// fakeReplica speaks the replica half of the protocol by hand, so the
// Primary can be tested without an engine.
type fakeReplica struct {
	peer *tds.Peer
}

func dialFake(t *testing.T, p *Primary, id string, from uint64) *fakeReplica {
	t.Helper()
	c, s := net.Pipe()
	t.Cleanup(func() { c.Close(); s.Close() })
	go p.ServeConn(s)
	f := &fakeReplica{peer: tds.NewPeer(c, false)}
	f.send(t, &Hello{ReplicaID: id, FromLSN: from})
	return f
}

func (f *fakeReplica) send(t *testing.T, msg any) {
	t.Helper()
	if err := f.peer.Send(appendMessage(f.peer.Message(), msg)); err != nil {
		t.Fatal(err)
	}
}

func (f *fakeReplica) recv(t *testing.T) Batch {
	t.Helper()
	msg, err := recv(f.peer)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := msg.(*Batch)
	if !ok {
		t.Fatalf("primary sent %T", msg)
	}
	return *b
}

func (f *fakeReplica) ack(t *testing.T, lsn uint64) {
	t.Helper()
	f.send(t, &Ack{AckLSN: lsn})
}

func TestPrimaryStreamsAndTracksAcks(t *testing.T) {
	wal := storage.NewWAL()
	for i := 0; i < 5; i++ {
		wal.Append(storage.Record{Type: storage.RecCheckpoint})
	}
	p := NewPrimary(wal, nil)
	defer p.Close()

	f := dialFake(t, p, "fake-1", 1)
	var got []storage.Record
	for len(got) < 5 {
		b := f.recv(t)
		if b.Err != "" {
			t.Fatalf("stream error: %s", b.Err)
		}
		got = append(got, b.Records...)
	}
	if got[0].LSN != 1 || got[4].LSN != 5 {
		t.Fatalf("records %d..%d", got[0].LSN, got[4].LSN)
	}

	// Until an ack arrives, truncation is held at the subscription point.
	if err := wal.TruncateBefore(4); err == nil {
		t.Fatal("truncation passed an unacked replica")
	}
	f.ack(t, 5)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ack, ok := p.WAL.MinStreamAck(); ok && ack == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ack never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if err := wal.TruncateBefore(6); err != nil {
		t.Fatal(err)
	}

	// New appends keep flowing on the live stream.
	wal.Append(storage.Record{Type: storage.RecCheckpoint})
	b := f.recv(t)
	if len(b.Records) != 1 || b.Records[0].LSN != 6 {
		t.Fatalf("live batch = %+v", b)
	}
}

func TestPrimaryHeartbeatOnIdleStream(t *testing.T) {
	wal := storage.NewWAL()
	wal.Append(storage.Record{Type: storage.RecCheckpoint})
	p := NewPrimary(wal, nil)
	defer p.Close()

	f := dialFake(t, p, "fake-hb", 1)
	b := f.recv(t) // the backlog
	if len(b.Records) != 1 {
		t.Fatalf("backlog = %d records", len(b.Records))
	}
	f.ack(t, 1)
	b = f.recv(t) // caught up: next shipment is a heartbeat
	if len(b.Records) != 0 || b.Err != "" {
		t.Fatalf("heartbeat = %+v", b)
	}
	if b.NextLSN != 2 {
		t.Fatalf("heartbeat NextLSN = %d, want 2", b.NextLSN)
	}
	if b.SentAtUnixNano == 0 {
		t.Fatal("heartbeat not timestamped")
	}
}

// A Hello with FromLSN == 0 (LSNs start at 1) must not underflow the stream
// pin to 2^64-1 — that would wreck log retention for the replica.
func TestPrimaryClampsZeroFromLSN(t *testing.T) {
	wal := storage.NewWAL()
	wal.Append(storage.Record{Type: storage.RecCheckpoint})
	p := NewPrimary(wal, nil)
	defer p.Close()

	f := dialFake(t, p, "fake-zero", 0)
	b := f.recv(t)
	if b.Err != "" || len(b.Records) != 1 || b.Records[0].LSN != 1 {
		t.Fatalf("zero-FromLSN batch = %+v", b)
	}
	// The stream registered with ack 0, not an underflowed huge value.
	if ack, ok := p.WAL.MinStreamAck(); !ok || ack != 0 {
		t.Fatalf("min acked = %d, %v", ack, ok)
	}
	// Retention still holds for the un-acked record.
	if err := wal.TruncateBefore(2); err == nil {
		t.Fatal("truncation ignored the zero-FromLSN stream")
	}
}

func TestPrimaryRejectsTruncatedSubscription(t *testing.T) {
	wal := storage.NewWAL()
	for i := 0; i < 10; i++ {
		wal.Append(storage.Record{Type: storage.RecCheckpoint})
	}
	if err := wal.TruncateBefore(6); err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(wal, nil)
	defer p.Close()

	f := dialFake(t, p, "fake-stale", 3)
	b := f.recv(t)
	if b.Err == "" || !strings.Contains(b.Err, "truncated") {
		t.Fatalf("stale subscription batch = %+v", b)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep := NewBenchReport(BenchRun{
		Workload:   "tpcc",
		DurationMs: 1500,
		LagSamples: 10,
	})
	path := t.TempDir() + "/BENCH_repl.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateBenchReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Run.Workload != "tpcc" {
		t.Fatalf("round trip = %+v", got.Run)
	}
	// A schema mismatch is a hard error.
	if _, err := ValidateBenchReport([]byte(`{"schema":"other/v9","run":{"duration_ms":1,"lag_samples":1}}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
}
