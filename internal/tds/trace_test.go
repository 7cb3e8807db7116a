package tds

import (
	"errors"
	"net"
	"strings"
	"testing"

	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
)

// A traced statement must land in the server's ring under the ID the
// client minted.
func TestExecTraceCarriesClientID(t *testing.T) {
	tracer := trace.NewTracer(trace.Policy{SampleRate: 1})
	eng := engine.New(engine.Config{Tracer: tracer})
	srv := NewServer(eng)
	client, server := net.Pipe()
	go srv.ServeConn(server)
	c := NewConn(client)
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE tr (id int PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}
	id := trace.NewID()
	if _, err := c.ExecTrace("INSERT INTO tr (id) VALUES (@i)",
		map[string][]byte{"i": sqltypes.Int(1).Encode()}, id); err != nil {
		t.Fatal(err)
	}
	for _, tr := range tracer.Store().Drain() {
		if tr.ID == id {
			if tr.Kind != trace.KindInsert {
				t.Fatalf("kind = %v, want insert", tr.Kind)
			}
			return
		}
	}
	t.Fatalf("no trace with client ID %s in the ring", id)
}

// An adversarial trace field is rejected without killing the session, and an
// oversized one never reaches the wire at all.
func TestOversizedTraceRejected(t *testing.T) {
	eng := engine.New(engine.Config{Tracer: trace.NewTracer(trace.Policy{SampleRate: 1})})
	srv := NewServer(eng)
	client, server := net.Pipe()
	go srv.ServeConn(server)
	c := NewConn(client)
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE adv (id int PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}

	// Wrong-length trace ID: the server answers with an error Response.
	resp, err := c.roundTrip(&Request{Exec: &ExecReq{
		Query: "INSERT INTO adv (id) VALUES (@i)",
		Params: map[string][]byte{
			"i": sqltypes.Int(1).Encode(),
		},
		Trace: make([]byte, 64),
	}})
	if err == nil || resp == nil || !strings.Contains(resp.Err, "bad trace context") {
		t.Fatalf("64-byte trace: resp=%+v err=%v", resp, err)
	}

	// The connection survives to run a clean statement.
	if _, err := c.Exec("INSERT INTO adv (id) VALUES (@i)",
		map[string][]byte{"i": sqltypes.Int(2).Encode()}); err != nil {
		t.Fatalf("connection dead after rejected trace: %v", err)
	}

	// A trace blob larger than MaxFrameSize fails locally — it must not take
	// down the server, hang the client or poison the connection.
	_, err = c.roundTrip(&Request{Exec: &ExecReq{
		Query: "INSERT INTO adv (id) VALUES (@i)",
		Params: map[string][]byte{
			"i": sqltypes.Int(3).Encode(),
		},
		Trace: make([]byte, MaxFrameSize+1024),
	}})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := c.Exec("INSERT INTO adv (id) VALUES (@i)",
		map[string][]byte{"i": sqltypes.Int(4).Encode()}); err != nil {
		t.Fatalf("connection dead after a refused oversized request: %v", err)
	}
}
