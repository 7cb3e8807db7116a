package tds

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"
)

// Framing (DESIGN.md, "Wire format"): a message on the TDS and replication
// wires is a u32 big-endian body length and the body. A request comes from
// an untrusted peer and is checked against MaxFrameSize from its length
// alone; a response may be larger, and is read in MaxFrameSize steps so
// memory grows only with bytes received. A message is encoded whole and
// size-checked before its first byte is written.
const (
	// MaxFrameSize bounds a request body.
	MaxFrameSize = 4 << 20

	// DefaultIdleTimeout is how long a server end waits for the next
	// request before the connection is considered abandoned.
	DefaultIdleTimeout = 5 * time.Minute

	// DefaultWriteTimeout bounds writing one message to a peer that has
	// stopped draining its socket.
	DefaultWriteTimeout = 30 * time.Second
)

// ErrFrameTooLarge reports a message length outside what its direction
// allows.
var ErrFrameTooLarge = errors.New("tds: frame exceeds maximum size")

// Peer is one end of a message stream. The server end (a TDS server, a
// replication primary) reads requests and sends responses and arms
// DefaultIdleTimeout on every read; the client end sends requests and reads
// responses. Send and Recv may run concurrently with each other, but
// neither with itself.
type Peer struct {
	conn   net.Conn
	br     *bufio.Reader
	hdr    [4]byte
	out    []byte
	server bool
}

// NewPeer wraps conn as a server end or a client end.
func NewPeer(conn net.Conn, server bool) *Peer {
	return &Peer{conn: conn, br: bufio.NewReader(conn), server: server}
}

// Message returns the send buffer, emptied, with room for the length
// prefix: append one message body and pass the result to Send.
func (p *Peer) Message() []byte { return append(p.out[:0], 0, 0, 0, 0) }

// Send writes one message built on Message, under DefaultWriteTimeout. A
// request body over MaxFrameSize is refused before anything is written.
func (p *Peer) Send(msg []byte) error {
	n := len(msg) - len(p.hdr)
	if (!p.server && n > MaxFrameSize) || n > math.MaxUint32 {
		return fmt.Errorf("%w: %d-byte message", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(msg, uint32(n))
	if cap(msg) <= MaxFrameSize { // a larger result set's buffer is dropped once sent
		p.out = msg[:0]
	}
	if err := p.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout)); err != nil {
		return err
	}
	_, err := p.conn.Write(msg)
	return err
}

// Recv reads the next message body into a fresh buffer that is never
// reused, so decoded messages may alias it.
func (p *Peer) Recv() ([]byte, error) {
	if p.server {
		if err := p.conn.SetReadDeadline(time.Now().Add(DefaultIdleTimeout)); err != nil {
			return nil, err
		}
	}
	if _, err := io.ReadFull(p.br, p.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(p.hdr[:]))
	if n == 0 || (p.server && n > MaxFrameSize) {
		return nil, fmt.Errorf("%w: %d-byte message", ErrFrameTooLarge, n)
	}
	body := make([]byte, 0, min(n, MaxFrameSize))
	for len(body) < n {
		step := min(n-len(body), MaxFrameSize)
		body = slices.Grow(body, step)[:len(body)+step]
		if _, err := io.ReadFull(p.br, body[len(body)-step:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// Endpoint runs one handler goroutine per accepted connection and closes
// every open connection on Close. The zero value is ready to use.
type Endpoint struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// Serve accepts connections from l until it fails or Close is called; each
// connection is closed when its handler returns.
func (e *Endpoint) Serve(l net.Listener, handle func(net.Conn)) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		e.mu.Lock()
		if e.done {
			e.mu.Unlock()
			conn.Close()
			return nil
		}
		if e.conns == nil {
			e.conns = make(map[net.Conn]struct{})
		}
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				e.mu.Lock()
				delete(e.conns, conn)
				e.mu.Unlock()
			}()
			handle(conn)
		}()
	}
}

// Close stops Serve at its next accepted connection and closes every open
// one.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.done = true
	for c := range e.conns {
		c.Close()
	}
	e.conns = nil
	e.mu.Unlock()
}
