package tds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// peerPair connects a client end to a server end over net.Pipe.
func peerPair(t *testing.T) (client, server *Peer, clientConn net.Conn) {
	t.Helper()
	c, s := net.Pipe()
	t.Cleanup(func() { c.Close(); s.Close() })
	return NewPeer(c, false), NewPeer(s, true), c
}

// send writes body from p on a goroutine and returns its error channel.
func send(p *Peer, body []byte) <-chan error {
	msg := append(p.Message(), body...)
	errc := make(chan error, 1)
	go func() { errc <- p.Send(msg) }()
	return errc
}

func TestFrameRoundTrip(t *testing.T) {
	client, server, _ := peerPair(t)
	msg := bytes.Repeat([]byte("payload."), 100)
	errc := send(client, msg)
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted in framing")
	}
}

// rawHeader writes a bare length prefix from the client side.
func rawHeader(c net.Conn, n uint32) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	go c.Write(hdr[:])
}

// A request longer than MaxFrameSize is refused from its length alone.
func TestFrameRejectsOversizedHeader(t *testing.T) {
	_, server, c := peerPair(t)
	rawHeader(c, MaxFrameSize+1)
	if _, err := server.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request header err = %v", err)
	}
}

func TestFrameRejectsZeroLengthHeader(t *testing.T) {
	_, server, c := peerPair(t)
	rawHeader(c, 0)
	if _, err := server.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("zero-length frame err = %v", err)
	}
}

// A response may announce any length, but the reader allocates at most
// MaxFrameSize ahead of what actually arrived: a 2 GiB promise followed by a
// few bytes and a hang-up costs one step, not 2 GiB.
func TestFrameResponseGrowsWithBytesReceived(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	client := NewPeer(c, false)
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<31)
		s.Write(hdr[:])
		s.Write([]byte("only this"))
		s.Close()
	}()
	var err error
	n := allocatedBy(func() { _, err = client.Recv() })
	if err == nil {
		t.Fatal("truncated response accepted")
	}
	if n > 2*MaxFrameSize {
		t.Fatalf("a response that delivered 9 bytes cost %d bytes", n)
	}
}

// A request over MaxFrameSize fails locally: nothing reaches the wire.
func TestFrameWriterRefusesOversizedMessage(t *testing.T) {
	client, _, _ := peerPair(t)
	msg := append(client.Message(), make([]byte, MaxFrameSize+1)...)
	if err := client.Send(msg); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request err = %v", err)
	}
}

// A refused request leaves the connection usable: the next message arrives
// intact and nothing of the refused one precedes it.
func TestFrameUsableAfterOversizedRequest(t *testing.T) {
	client, server, _ := peerPair(t)
	big := append(client.Message(), make([]byte, MaxFrameSize+1)...)
	if err := client.Send(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request err = %v", err)
	}
	errc := send(client, []byte("next"))
	got, err := server.Recv()
	if err != nil || string(got) != "next" {
		t.Fatalf("message after a refused one = %q, %v", got, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// A response may exceed MaxFrameSize; the client reads it in steps and
// reassembles it intact.
func TestFrameStreamingSpansFrames(t *testing.T) {
	client, server, _ := peerPair(t)
	msg := make([]byte, (2*MaxFrameSize)+12345)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	errc := send(server, msg)
	got, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("multi-step message corrupted")
	}
}

// deadlineConn records the deadlines a Peer arms.
type deadlineConn struct {
	net.Conn
	mu            sync.Mutex
	read, written time.Time
}

func (d *deadlineConn) SetReadDeadline(t time.Time) error {
	d.mu.Lock()
	d.read = t
	d.mu.Unlock()
	return d.Conn.SetReadDeadline(t)
}

func (d *deadlineConn) SetWriteDeadline(t time.Time) error {
	d.mu.Lock()
	d.written = t
	d.mu.Unlock()
	return d.Conn.SetWriteDeadline(t)
}

// near reports whether deadline lies d after now, give or take a second.
func near(deadline time.Time, d time.Duration) bool {
	off := time.Until(deadline) - d
	return off > -time.Second && off < time.Second
}

// The server end waits DefaultIdleTimeout for each request; the client end
// waits as long as a statement takes.
func TestFrameIdleTimeout(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	sc, cc := &deadlineConn{Conn: s}, &deadlineConn{Conn: c}
	server, client := NewPeer(sc, true), NewPeer(cc, false)
	errc := send(client, []byte("x"))
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	<-errc
	sc.mu.Lock()
	armed := sc.read
	sc.mu.Unlock()
	if !near(armed, DefaultIdleTimeout) {
		t.Fatalf("server read deadline %v, want now+%v", armed, DefaultIdleTimeout)
	}
	errc = send(server, []byte("y"))
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	<-errc
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if !cc.read.IsZero() {
		t.Fatalf("client armed a read deadline %v", cc.read)
	}
}

// Every send is bounded by DefaultWriteTimeout, and a stalled peer surfaces
// as a timeout error.
func TestFrameWriteTimeout(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	cc := &deadlineConn{Conn: c}
	p := NewPeer(cc, false)
	go func() {
		// Nobody reads from s. Once Send has armed its deadline, shorten it
		// so the stall shows within the test.
		for {
			cc.mu.Lock()
			armed := !cc.written.IsZero()
			cc.mu.Unlock()
			if armed {
				break
			}
			time.Sleep(time.Millisecond)
		}
		cc.Conn.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	}()
	err := p.Send(append(p.Message(), make([]byte, 64)...))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("stalled send err = %v", err)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if !near(cc.written, DefaultWriteTimeout) {
		t.Fatalf("send armed write deadline %v, want now+%v", cc.written, DefaultWriteTimeout)
	}
}
