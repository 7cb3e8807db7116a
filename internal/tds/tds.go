// Package tds implements the client↔server wire protocol of the
// reproduction — the stand-in for the TDS stream of Figure 3. It is a
// length-framed request/response protocol with an explicit byte codec
// (codec.go) carrying:
//
//   - sp_describe_parameter_encryption calls, optionally with the client's
//     DH public key (which triggers attestation, §4.2);
//   - sealed CEK envelopes and DDL authorizations bound for the enclave,
//     relayed by the untrusted server ("man in the middle", §3);
//   - parameterized statement executions with encrypted parameters, and
//     result sets with the key metadata needed for client-side decryption.
//
// The server exposes a Tap so a strong adversary (or the leakage harness)
// can observe everything on the wire — which is exactly the paper's threat
// model: the adversary sees all external and internal communication.
package tds

import (
	"errors"
	"fmt"
	"net"

	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/obs/trace"
)

// Request is the union of client→server messages; exactly one field is set.
type Request struct {
	Describe   *DescribeReq
	Exec       *ExecReq
	BulkInsert *BulkInsertReq
	InstallCEK *InstallCEKReq
	Authorize  *AuthorizeReq
	Ping       *PingReq
}

// PingReq is a liveness/progress probe: the response carries nothing but the
// server's LSN watermark (Response.LSN). Connection pools use it both as a
// health check on idle connections and as the replica-staleness heartbeat
// that read routing decides on.
type PingReq struct{}

// DescribeReq asks for sp_describe_parameter_encryption output. ClientDHPub
// is set when the client wants attestation folded in (it has no cached
// shared secret yet).
type DescribeReq struct {
	Query       string
	ClientDHPub []byte
}

// ExecReq executes a parameterized statement. Parameter values are wire
// encodings: ciphertext for encrypted parameters. Trace is an optional
// 16-byte client-minted trace ID; when it is empty the server mints one.
type ExecReq struct {
	Query  string
	Params map[string][]byte
	Trace  []byte
}

// BulkInsertReq carries a multi-row insert batch — the bulkcopy fast path.
// Rows is the EncodeCellRows flat framing of the batch: wire encodings cell
// by cell in Cols order — ciphertext envelopes for encrypted columns (the
// client encrypted them before sending, exactly like Exec parameters),
// canonical value encodings for plaintext ones. The server never sees
// plaintext for encrypted cells; the batch only changes how many rows share
// one round trip and one set of log records.
type BulkInsertReq struct {
	Table string
	Cols  []string
	Rows  []byte
	Trace []byte
}

// InstallCEKReq relays a sealed CEK envelope to the enclave.
type InstallCEKReq struct {
	Name   string
	Nonce  uint64
	Sealed []byte
}

// AuthorizeReq relays a sealed DDL-authorization hash to the enclave.
type AuthorizeReq struct {
	Nonce  uint64
	Sealed []byte
}

// Response is the union of server→client messages.
type Response struct {
	Err      string
	Describe *DescribeResp
	Result   *engine.ResultSet
	// LSN is the server's log watermark at response time: on a primary the
	// highest assigned LSN, on a read replica the highest *applied* LSN (a
	// mirrored-but-unapplied record is not yet visible to reads, so the
	// replica must not advertise it). Zero means the server does not report
	// one. Clients use it for LSN-bounded replica read routing: a write's
	// response LSN is the client's read-your-writes watermark, and a replica
	// is eligible for a read only once its advertised LSN has caught up to it.
	LSN uint64
}

// DescribeResp carries the describe output plus attestation when requested.
type DescribeResp struct {
	Desc        engine.DescribeResult
	Attestation *attestation.Info
	EnclaveSID  uint64
}

// Tap observes protocol traffic. dir is "c→s" or "s→c".
type Tap func(dir string, msg any)

// Server serves engine sessions over a listener: one goroutine and one
// engine session per connection, as in TDS.
type Server struct {
	Engine *engine.Engine
	Tap    Tap

	// LSN, when non-nil, reports the server's log watermark; every response
	// (including ping responses) carries its value. Set it before Serve:
	// handler goroutines read it concurrently. A primary reports the highest
	// assigned LSN; a replica reports the highest applied LSN.
	LSN func() uint64

	conns Endpoint
}

// NewServer wraps an engine.
func NewServer(e *engine.Engine) *Server { return &Server{Engine: e} }

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error { return s.conns.Serve(l, s.handle) }

// Close tears down all connections.
func (s *Server) Close() { s.conns.Close() }

// ServeConn handles a single already-established connection (e.g. one side
// of net.Pipe); it blocks until the connection closes.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	s.handle(conn)
}

func (s *Server) handle(conn net.Conn) {
	sess := s.Engine.NewSession()
	peer := NewPeer(conn, true)
	for {
		body, err := peer.Recv()
		var req *Request
		if err == nil {
			req, err = decodeRequest(body)
		}
		if err != nil {
			if sess.InTxn() {
				// Connection dropped mid-transaction: roll back, as a real
				// server would on session death.
				sess.Rollback()
			}
			return
		}
		if s.Tap != nil {
			s.Tap("c→s", req)
		}
		resp := s.dispatch(sess, req)
		if s.LSN != nil {
			resp.LSN = s.LSN()
		}
		if s.Tap != nil {
			s.Tap("s→c", resp)
		}
		if err := peer.Send(appendResponse(peer.Message(), body[0], resp)); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(sess *engine.Session, req *Request) *Response {
	var resp Response
	var err error
	switch {
	case req.Describe != nil:
		d := &DescribeResp{}
		var desc *engine.DescribeResult
		desc, d.Attestation, d.EnclaveSID, err = sess.DescribeWithAttestation(req.Describe.Query, req.Describe.ClientDHPub)
		if err == nil {
			d.Desc, resp.Describe = *desc, d
		}
	case req.Exec != nil:
		if err = setTrace(sess, req.Exec.Trace); err == nil {
			resp.Result, err = sess.Execute(req.Exec.Query, engine.Params(req.Exec.Params))
		}
	case req.BulkInsert != nil:
		m := req.BulkInsert
		var rows [][][]byte
		if err = setTrace(sess, m.Trace); err == nil {
			rows, err = DecodeCellRows(m.Rows)
		}
		if err == nil {
			resp.Result = &engine.ResultSet{}
			resp.Result.Affected, err = sess.BulkInsert(m.Table, m.Cols, rows)
		}
	case req.InstallCEK != nil:
		err = sess.InstallCEK(req.InstallCEK.Name, req.InstallCEK.Nonce, req.InstallCEK.Sealed)
	case req.Authorize != nil:
		err = sess.AuthorizeStatement(req.Authorize.Nonce, req.Authorize.Sealed)
	}
	// Ping has nothing to do: handle stamps the LSN watermark on every answer.
	if err != nil {
		return &Response{Err: err.Error()}
	}
	return &resp
}

// setTrace installs a request's client-minted trace ID on the session.
func setTrace(sess *engine.Session, b []byte) error {
	id, err := trace.IDFromBytes(b)
	if err != nil {
		return fmt.Errorf("tds: bad trace context: %v", err)
	}
	sess.SetTraceID(id)
	return nil
}

// Conn is the client end of the protocol: a thin RPC layer with no AE
// logic (that lives in the driver package). Not safe for concurrent use.
type Conn struct {
	peer *Peer
	// lastLSN is the watermark from the most recent response (0 until the
	// server reports one). Error responses update it too: the server stamps
	// its watermark on every answer it produces.
	lastLSN uint64
}

// Dial connects to a server address.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tds: dial: %w", err)
	}
	return NewConn(c), nil
}

// NewConn wraps an established transport (TCP or net.Pipe). The client sets
// no read deadline (a query may legitimately run long) and no cap on
// response size. Requests it sends must fit MaxFrameSize; an oversized one
// fails locally without touching the wire.
func NewConn(c net.Conn) *Conn { return &Conn{peer: NewPeer(c, false)} }

// Close shuts the connection down.
func (c *Conn) Close() error { return c.peer.conn.Close() }

// roundTrip sends one request and reads the response that answers it. A
// response that does not decode, or does not answer this request, is a
// protocol error: the connection is closed, and the caller sees a transport
// failure.
func (c *Conn) roundTrip(req *Request) (*Response, error) {
	msg := appendRequest(c.peer.Message(), req)
	if len(msg) == len(c.peer.hdr) {
		return nil, errors.New("tds: empty request")
	}
	tag := msg[len(c.peer.hdr)]
	if err := c.peer.Send(msg); err != nil {
		return nil, fmt.Errorf("tds: send: %w", err)
	}
	body, err := c.peer.Recv()
	if err != nil {
		return nil, fmt.Errorf("tds: recv: %w", err)
	}
	resp, err := decodeResponse(body, tag)
	if err != nil {
		c.Close()
		return nil, err
	}
	if resp.LSN > 0 {
		c.lastLSN = resp.LSN
	}
	if resp.Err != "" {
		return resp, &ServerError{Msg: resp.Err}
	}
	return resp, nil
}

// LastLSN returns the server's log watermark from the most recent response
// on this connection (0 if the server never reported one). After an Exec
// that committed a write, this is the write's read-your-writes watermark.
func (c *Conn) LastLSN() uint64 { return c.lastLSN }

// Ping round-trips a liveness probe and returns the server's current LSN
// watermark. Pools use it to health-check idle connections and to refresh
// replica staleness knowledge.
func (c *Conn) Ping() (uint64, error) {
	resp, err := c.roundTrip(&Request{Ping: &PingReq{}})
	if err != nil {
		return 0, err
	}
	return resp.LSN, nil
}

// ServerError is an error reported by the server.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// Describe invokes sp_describe_parameter_encryption.
func (c *Conn) Describe(query string, clientDHPub []byte) (*DescribeResp, error) {
	resp, err := c.roundTrip(&Request{Describe: &DescribeReq{Query: query, ClientDHPub: clientDHPub}})
	if err != nil {
		return nil, err
	}
	return resp.Describe, nil
}

// Exec executes a parameterized statement.
func (c *Conn) Exec(query string, params map[string][]byte) (*engine.ResultSet, error) {
	return c.ExecTrace(query, params, trace.ID{})
}

// ExecTrace is Exec with an explicit trace context. A zero ID sends an empty
// trace field; a non-zero ID rides the request so the server's trace of
// this statement carries the client-minted ID.
func (c *Conn) ExecTrace(query string, params map[string][]byte, id trace.ID) (*engine.ResultSet, error) {
	req := &ExecReq{Query: query, Params: params}
	if !id.IsZero() {
		req.Trace = id[:]
	}
	resp, err := c.roundTrip(&Request{Exec: req})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// BulkInsert sends one multi-row insert batch. Cells must already be wire
// encodings (ciphertext for encrypted columns). Returns rows inserted.
func (c *Conn) BulkInsert(table string, cols []string, rows [][][]byte, id trace.ID) (int, error) {
	req := &BulkInsertReq{Table: table, Cols: cols, Rows: EncodeCellRows(rows)}
	if !id.IsZero() {
		req.Trace = id[:]
	}
	resp, err := c.roundTrip(&Request{BulkInsert: req})
	if err != nil {
		return 0, err
	}
	return resp.Result.Affected, nil
}

// InstallCEK ships a sealed CEK to the enclave via the server.
func (c *Conn) InstallCEK(name string, nonce uint64, sealed []byte) error {
	_, err := c.roundTrip(&Request{InstallCEK: &InstallCEKReq{Name: name, Nonce: nonce, Sealed: sealed}})
	return err
}

// Authorize ships a sealed DDL authorization to the enclave via the server.
func (c *Conn) Authorize(nonce uint64, sealed []byte) error {
	_, err := c.roundTrip(&Request{Authorize: &AuthorizeReq{Nonce: nonce, Sealed: sealed}})
	return err
}
