package driver

import (
	"errors"
	"sync"
	"testing"

	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/tds"
)

// hostileEnv is a server whose responses a test can rewrite just before they
// are encoded — the untrusted server of §2.6 answering with whatever bytes it
// likes.
type hostileEnv struct {
	*serverEnv
	mu       sync.Mutex
	sabotage func(*tds.Response)
}

func newHostileEnv(t *testing.T) *hostileEnv {
	h := &hostileEnv{serverEnv: newServerEnv(t)}
	h.server.Tap = func(dir string, msg any) {
		resp, ok := msg.(*tds.Response)
		if !ok {
			return
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.sabotage != nil {
			h.sabotage(resp)
		}
	}
	return h
}

func (h *hostileEnv) set(fn func(*tds.Response)) {
	h.mu.Lock()
	h.sabotage = fn
	h.mu.Unlock()
}

// A response missing the body its request requires is a protocol error for
// the statement — never a nil dereference in the client — and the transport
// rules decide the outcome: a possibly-applied write is indeterminate.
func TestHostileServerMissingBody(t *testing.T) {
	h := newHostileEnv(t)
	h.provision("CMK1", "CEK1", true)
	admin := h.dial(Config{})
	mustExec(t, admin, `CREATE TABLE hb (id int PRIMARY KEY,
		s varchar(20) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	dropResult := func(r *tds.Response) { r.Result = nil }

	// Exec of a write: applied or not, the client cannot tell.
	c := h.dial(Config{})
	h.set(dropResult)
	_, err := c.Exec("INSERT INTO hb (id) VALUES (@i)", map[string]sqltypes.Value{"i": sqltypes.Int(1)})
	h.set(nil)
	if !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("INSERT answered without a result: err = %v, want ErrIndeterminate", err)
	}
	// The connection was closed after the protocol error.
	if _, err := c.Exec("SELECT id FROM hb", nil); err == nil {
		t.Fatal("connection still usable after a protocol error")
	}

	// Exec of a read: a plain error.
	c = h.dial(Config{})
	h.set(dropResult)
	_, err = c.Exec("SELECT id FROM hb", nil)
	h.set(nil)
	if err == nil || errors.Is(err, ErrIndeterminate) {
		t.Fatalf("SELECT answered without a result: err = %v", err)
	}

	// Describe without its body: the client must not release keys or panic.
	ae := h.dial(Config{AlwaysEncrypted: true})
	h.set(func(r *tds.Response) { r.Describe = nil })
	_, err = ae.Exec("SELECT id FROM hb WHERE s = @s", map[string]sqltypes.Value{"s": sqltypes.Str("x")})
	h.set(nil)
	if err == nil {
		t.Fatal("describe answered without a body was accepted")
	}

	// A bulk chunk answered without a count.
	c = h.dial(Config{})
	h.set(dropResult)
	n, err := c.BulkInsert("hb", []string{"id"}, [][]sqltypes.Value{{sqltypes.Int(7)}, {sqltypes.Int(8)}})
	h.set(nil)
	if !errors.Is(err, ErrIndeterminate) || n != 0 {
		t.Fatalf("bulk chunk answered without a result: n = %d, err = %v, want ErrIndeterminate", n, err)
	}
}

// A result row wider than the result's column list is a protocol error, not
// an index panic in the decrypting client.
func TestHostileServerRowWiderThanColumns(t *testing.T) {
	h := newHostileEnv(t)
	c := h.dial(Config{})
	mustExec(t, c, "CREATE TABLE hw (id int PRIMARY KEY)", nil)
	mustExec(t, c, "INSERT INTO hw (id) VALUES (@i)", map[string]sqltypes.Value{"i": sqltypes.Int(1)})
	h.set(func(r *tds.Response) {
		if r.Result != nil && len(r.Result.Rows) > 0 {
			r.Result.Rows[0] = append(r.Result.Rows[0], sqltypes.Int(2).Encode())
		}
	})
	_, err := c.Exec("SELECT id FROM hw", nil)
	h.set(nil)
	if err == nil {
		t.Fatal("a row wider than its columns was accepted")
	}
}
