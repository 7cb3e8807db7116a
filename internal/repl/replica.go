package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/tds"
)

// ReplicaConfig wires a redo loop to a primary.
type ReplicaConfig struct {
	// PrimaryAddr is the primary's replication endpoint (TCP).
	PrimaryAddr string
	// Conn is an already-established transport (e.g. net.Pipe); when set,
	// PrimaryAddr is ignored.
	Conn net.Conn
	// ReplicaID names this replica in the primary's stream table.
	ReplicaID string
	// Engine is the replica's (read-only) engine; its WAL mirrors the
	// primary's and its storage receives physical redo.
	Engine *engine.Engine
	// Obs receives lag and throughput instruments (nil for none).
	Obs *obs.Registry
}

// Replica is a running redo loop: it subscribes to the primary's WAL from
// its local high-water mark, mirrors every record into its own WAL
// (AppendAt), and applies it through the RedoApplier. It stops on stream
// loss (primary death, truncation) or Stop().
type Replica struct {
	cfg     ReplicaConfig
	applier *engine.RedoApplier
	conn    net.Conn

	lagRecords *obs.Gauge
	lagMs      *obs.Gauge
	redoRecs   *obs.Counter
	redoBatch  *obs.Counter

	stopOnce sync.Once
	done     chan struct{}
	err      atomic.Value // error
	stopped  atomic.Bool
}

// StartReplica connects to the primary and launches the redo loop. The
// engine is switched to read-only; Promote (via the applier's owner)
// switches it back.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Engine == nil {
		return nil, errors.New("repl: replica needs an engine")
	}
	conn := cfg.Conn
	if conn == nil {
		var err error
		conn, err = net.Dial("tcp", cfg.PrimaryAddr)
		if err != nil {
			return nil, fmt.Errorf("repl: dial primary: %w", err)
		}
	}
	cfg.Engine.SetReadOnly(true)
	r := &Replica{
		cfg:        cfg,
		applier:    engine.NewRedoApplier(cfg.Engine),
		conn:       conn,
		lagRecords: cfg.Obs.Gauge("repl.lag_records"),
		lagMs:      cfg.Obs.Gauge("repl.lag_ms"),
		redoRecs:   cfg.Obs.Counter("repl.redo_records"),
		redoBatch:  cfg.Obs.Counter("repl.redo_batches"),
		done:       make(chan struct{}),
	}
	if cfg.Obs != nil {
		cfg.Obs.GaugeFunc("repl.applied_lsn", func() int64 {
			return int64(r.applier.AppliedLSN())
		})
	}
	go r.run()
	return r, nil
}

// AppliedLSN is the highest LSN applied so far.
func (r *Replica) AppliedLSN() uint64 { return r.applier.AppliedLSN() }

// Done closes when the redo loop exits.
func (r *Replica) Done() <-chan struct{} { return r.done }

// Err reports why the loop exited (nil after a clean Stop).
func (r *Replica) Err() error {
	if e, ok := r.err.Load().(error); ok {
		return e
	}
	return nil
}

// Stop halts the redo loop and waits for it to exit.
func (r *Replica) Stop() {
	r.stopped.Store(true)
	r.stopOnce.Do(func() { r.conn.Close() })
	<-r.done
}

// WaitForLSN blocks until the replica has applied every record below lsn, the
// loop dies, or the timeout expires.
func (r *Replica) WaitForLSN(lsn uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if r.applier.AppliedLSN()+1 >= lsn {
			return nil
		}
		select {
		case <-r.done:
			if err := r.Err(); err != nil {
				return err
			}
			return errors.New("repl: replica stopped before reaching LSN")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: timed out at LSN %d waiting for %d", r.applier.AppliedLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *Replica) fail(err error) {
	if err != nil && !r.stopped.Load() {
		r.err.Store(err)
	}
}

func (r *Replica) run() {
	defer close(r.done)
	defer r.conn.Close()

	// The batch reader waits without a deadline: the primary heartbeats, and a
	// dead primary closes the socket (or is detected by the operator promoting
	// us).
	peer := tds.NewPeer(r.conn, false)
	wal := r.cfg.Engine.WAL()
	hello := &Hello{ReplicaID: r.cfg.ReplicaID, FromLSN: wal.NextLSN()}
	if err := peer.Send(appendMessage(peer.Message(), hello)); err != nil {
		r.fail(err)
		return
	}

	for {
		msg, err := recv(peer)
		batch, ok := msg.(*Batch)
		if err == nil && !ok {
			err = fmt.Errorf("%w: %T where a batch belongs", ErrBadMessage, msg)
		}
		if err != nil {
			r.fail(err)
			return
		}
		if batch.Err != "" {
			r.fail(streamErr(batch.Err))
			return
		}
		if r.stopped.Load() {
			return
		}
		// Redo tracing: WAL records carry the originating statement's trace
		// ID, so each contiguous run of same-origin records becomes one
		// replica-side trace whose Link points back at the primary trace —
		// a cross-node statement→redo join with no extra wire traffic.
		tracer := r.cfg.Engine.Tracer()
		var redoAct *trace.Active
		var redoSpan trace.SpanRef
		var redoOrigin trace.ID
		var redoRecs int64
		finishRedo := func() {
			if redoAct != nil {
				redoSpan.Attr("records", redoRecs)
				redoSpan.End()
				redoAct.Finish(nil)
				redoAct, redoRecs = nil, 0
			}
		}
		for i := range batch.Records {
			rec := &batch.Records[i]
			if tracer != nil && rec.Trace != redoOrigin {
				finishRedo()
				redoOrigin = rec.Trace
				if !redoOrigin.IsZero() {
					redoAct = tracer.Start(trace.ID{}, trace.KindRedo)
					redoAct.SetLink(redoOrigin)
					redoSpan = redoAct.StartSpan("redo.apply")
					redoRecs = 0
				}
			}
			// Mirror into the local log first: on restart the replica replays
			// its own WAL from scratch, so the log is the source of truth.
			wal.AppendAt(*rec)
			if err := r.applier.Apply(rec); err != nil {
				if redoAct != nil {
					redoSpan.End()
					redoAct.Finish(err)
				}
				r.fail(err)
				return
			}
			redoRecs++
		}
		finishRedo()
		redoOrigin = trace.ID{}
		applied := r.applier.AppliedLSN()
		r.redoBatch.Inc()
		r.redoRecs.Add(uint64(len(batch.Records)))

		// Lag: records the primary has that we have not applied, and the age
		// of this shipment when we finished applying it.
		if batch.NextLSN > 0 {
			lag := int64(batch.NextLSN) - 1 - int64(applied)
			if lag < 0 {
				lag = 0
			}
			r.lagRecords.Set(lag)
			if lag == 0 {
				r.lagMs.Set(0)
			} else if batch.SentAtUnixNano > 0 {
				r.lagMs.Set((time.Now().UnixNano() - batch.SentAtUnixNano) / int64(time.Millisecond))
			}
		}

		if err := peer.Send(appendMessage(peer.Message(), &Ack{AckLSN: applied})); err != nil {
			r.fail(err)
			return
		}
	}
}
