// Package repl implements WAL-shipping replication: a primary streams its
// write-ahead log to read replicas, in the log's own record layout over the
// TDS front door's framing (internal/tds), replicas apply physical redo
// into their own buffer pools, and a replica can be promoted to primary
// after the original dies.
//
// The trust story mirrors the paper's: the replication stream is served by
// the untrusted server and carries exactly what the log carries — for
// encrypted columns, ciphertext. A replica never receives CEKs with the
// stream (its enclave starts empty), so a compromised replica host learns
// nothing beyond what the primary's host already exposes. Keys reach a
// replica's enclave only from a reader that attests it directly. Until then
// redo invalidates every enclave-ordered index it cannot maintain
// (engine.RedoApplier), reads over it scan, and after promotion the first
// key install rebuilds it from the heap. The Primary carries a Tap, like the
// TDS server, so the leakage harness can observe every shipped byte and
// assert that invariant.
//
// Flow control is LSN-based: each replica acknowledges the highest LSN it
// has durably applied, the primary records that progress in the WAL's
// stream table, and log truncation is gated on the slowest replica — the
// replication analogue of §4.5's "deferred transactions pin the log".
package repl

import (
	"errors"
	"fmt"
	"net"
	"time"

	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/storage"
	"alwaysencrypted/internal/tds"
	"alwaysencrypted/internal/wire"
)

// Hello is the replica's stream subscription: who it is and the first LSN it
// still needs. Everything before FromLSN is implicitly acknowledged.
type Hello struct {
	ReplicaID string
	FromLSN   uint64
}

// Batch is one shipment of log records. An empty Records slice is a
// heartbeat: it carries the primary's current NextLSN so an idle replica can
// still measure lag, and keeps the connection's liveness observable.
type Batch struct {
	Records []storage.Record
	// NextLSN is the primary's next-to-be-assigned LSN at send time.
	NextLSN uint64
	// SentAtUnixNano timestamps the shipment for lag-seconds measurement.
	SentAtUnixNano int64
	// Err is a terminal stream error (e.g. the requested LSN was truncated);
	// the replica must re-seed from a fresh copy.
	Err string
}

// Ack is the replica's progress report: every record up to and including
// AckLSN has been applied to its local WAL and storage.
type Ack struct {
	AckLSN uint64
}

const (
	// batchMax caps records per batch.
	batchMax = 256
	// heartbeat is the idle-stream heartbeat interval.
	heartbeat = 200 * time.Millisecond
)

// Primary serves the replication endpoint over a listener: one goroutine per
// replica, streaming from the shared WAL.
type Primary struct {
	WAL *storage.WAL
	// Tap observes stream traffic ("p→r" batches, "r→p" acks) — the leakage
	// harness hook, as on the TDS server.
	Tap tds.Tap

	batches  *obs.Counter
	records  *obs.Counter
	replicas *obs.Gauge

	conns tds.Endpoint
}

// NewPrimary wraps a WAL as a replication source, reporting into reg (nil for
// none).
func NewPrimary(wal *storage.WAL, reg *obs.Registry) *Primary {
	p := &Primary{
		WAL:      wal,
		batches:  reg.Counter("repl.batches_sent"),
		records:  reg.Counter("repl.records_shipped"),
		replicas: reg.Gauge("repl.replicas_connected"),
	}
	if reg != nil {
		reg.GaugeFunc("repl.min_acked_lsn", func() int64 {
			ack, ok := wal.MinStreamAck()
			if !ok {
				return 0
			}
			return int64(ack)
		})
	}
	return p
}

// Serve accepts replica connections until the listener closes.
func (p *Primary) Serve(l net.Listener) error { return p.conns.Serve(l, p.handle) }

// ServeConn streams to a single established connection (e.g. one side of
// net.Pipe); it blocks until the stream ends.
func (p *Primary) ServeConn(conn net.Conn) {
	defer conn.Close()
	p.handle(conn)
}

// Close tears down all replica streams.
func (p *Primary) Close() { p.conns.Close() }

func (p *Primary) handle(conn net.Conn) {
	peer := tds.NewPeer(conn, true)
	msg, err := recv(peer)
	hello, ok := msg.(*Hello)
	if err != nil || !ok {
		return
	}
	if p.Tap != nil {
		p.Tap("r→p", hello)
	}
	id := hello.ReplicaID
	if id == "" {
		id = conn.RemoteAddr().String()
	}
	// LSNs start at 1; FromLSN == 0 (never sent by our replicas) would
	// underflow the ack below to 2^64-1 and disable log retention for this
	// stream. Clamp it to "from the beginning".
	if hello.FromLSN == 0 {
		hello.FromLSN = 1
	}
	// Register stream progress: everything before FromLSN is already applied
	// on the replica side, so truncation may pass it but nothing newer.
	p.WAL.PinStream(id, hello.FromLSN-1)
	defer p.WAL.UnpinStream(id)
	p.replicas.Add(1)
	defer p.replicas.Add(-1)

	// Acks arrive asynchronously on the same connection; a dead replica is
	// detected here and stops the Follow loop.
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for {
			msg, err := recv(peer)
			ack, ok := msg.(*Ack)
			if err != nil || !ok {
				return
			}
			if p.Tap != nil {
				p.Tap("r→p", ack)
			}
			p.WAL.PinStream(id, ack.AckLSN)
		}
	}()

	from := hello.FromLSN
	for {
		recs, next, err := p.WAL.Follow(from, batchMax, stop, heartbeat)
		if errors.Is(err, storage.ErrFollowStopped) {
			return
		}
		batch := &Batch{Records: recs, NextLSN: next, SentAtUnixNano: time.Now().UnixNano()}
		if err != nil {
			batch.Err = err.Error()
		}
		if p.Tap != nil {
			p.Tap("p→r", batch)
		}
		if err := peer.Send(appendMessage(peer.Message(), batch)); err != nil {
			return
		}
		p.batches.Inc()
		p.records.Add(uint64(len(recs)))
		if batch.Err != "" {
			return
		}
		if n := len(recs); n > 0 {
			from = recs[n-1].LSN + 1
		}
	}
}

// ErrStream is the terminal-error wrapper replicas see for Batch.Err.
var ErrStream = errors.New("repl: stream error from primary")

func streamErr(msg string) error { return fmt.Errorf("%w: %s", ErrStream, msg) }

// Message tags on the replication stream: the replica sends one Hello and
// then Acks, the primary sends Batches.
const (
	tagHello byte = iota + 1
	tagAck
	tagBatch
)

// ErrBadMessage reports a replication message that does not decode.
var ErrBadMessage = errors.New("repl: malformed message")

// appendMessage appends the body of msg, a *Hello, *Ack or *Batch: its tag
// and fields in declaration order, a Batch's records last, in the log's
// record layout (DESIGN.md, "Wire format").
func appendMessage(b []byte, msg any) []byte {
	switch m := msg.(type) {
	case *Hello:
		return wire.AppendU64(wire.AppendString(append(b, tagHello), m.ReplicaID), m.FromLSN)
	case *Ack:
		return wire.AppendU64(append(b, tagAck), m.AckLSN)
	case *Batch:
		b = wire.AppendU64(append(b, tagBatch), m.NextLSN)
		b = wire.AppendString(wire.AppendU64(b, uint64(m.SentAtUnixNano)), m.Err)
		b = wire.AppendU32(b, uint32(len(m.Records)))
		for i := range m.Records {
			b = storage.AppendRecord(b, &m.Records[i])
		}
	}
	return b
}

// decodeMessage parses one message body. Record byte fields alias it.
func decodeMessage(body []byte) (any, error) {
	r := wire.NewReader(body, ErrBadMessage)
	var msg any
	switch tag := r.U8(); tag {
	case tagHello:
		msg = &Hello{ReplicaID: r.String(), FromLSN: r.U64()}
	case tagAck:
		msg = &Ack{AckLSN: r.U64()}
	case tagBatch:
		msg = &Batch{NextLSN: r.U64(), SentAtUnixNano: int64(r.U64()), Err: r.String(),
			Records: wire.ReadList(&r, storage.RecordMinLen, storage.ReadRecord)}
	default:
		r.Fail("message tag %d", tag)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return msg, nil
}

// recv reads and decodes the next message from peer.
func recv(peer *tds.Peer) (any, error) {
	body, err := peer.Recv()
	if err != nil {
		return nil, err
	}
	return decodeMessage(body)
}
