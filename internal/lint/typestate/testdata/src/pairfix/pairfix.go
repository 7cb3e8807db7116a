// Package pairfix exercises the pairing machine: open/mustOpen acquire a
// handle (open's error result starts it pending), close releases it; L is a
// latch keyed by its receiver.
package pairfix

import "errors"

type H struct{ n int }

type L struct{}

func (*L) Lock()   {}
func (*L) Unlock() {}

func open() (*H, error) { return &H{}, nil }
func mustOpen() *H      { return &H{} }
func close(h *H)        {}
func use(h *H)          {}
func cond() bool        { return false }

var errBad = errors.New("bad")

var global *H

// An error return while the acquire's own error is unchecked is exempt.
func PendingErrorExit() error {
	h, err := open()
	if err != nil {
		return err
	}
	close(h)
	return nil
}

// Once the handle is used, an error return leaks it.
func HeldErrorExit() error {
	h, err := open() // want `^handle leaked$`
	if err != nil {
		return err
	}
	if h.n > 0 {
		return errBad
	}
	close(h)
	return nil
}

func Leak() {
	h := mustOpen() // want `^handle leaked$`
	_ = h.n
}

// Released on one path, held on the other: maybe — neither a leak (handle
// is not an EveryPath resource) nor a definite double release.
func MaybeMerge() {
	h := mustOpen()
	if cond() {
		close(h)
	}
}

func MaybeThenClose() {
	h := mustOpen()
	if cond() {
		close(h)
	}
	close(h) // want `^handle closed twice$`
}

func Deferred() {
	h := mustOpen()
	defer close(h)
	_ = h.n
}

func DeferredClosure() {
	h := mustOpen()
	defer func() { close(h) }()
	_ = h.n
}

// A deferred release keeps the obligation held for the rest of the body.
func DeferredThenClosed() {
	h := mustOpen()
	defer close(h)
	close(h) // want `^handle closed twice$`
}

func DeferredThenRelocked(l *L) {
	l.Lock()
	defer l.Unlock()
	l.Lock() // want `^latch reacquired before release` `^latch held$`
}

// Each iteration's defer captured that iteration's handle.
func DeferredInLoop() {
	for cond() {
		h := mustOpen()
		defer close(h)
	}
}

func Alias() {
	h := mustOpen()
	g := h
	close(g)
}

// release closes its parameter on every path: its must-release summary
// discharges the caller.
func release(h *H) { close(h) }

func ViaHelper() {
	h := mustOpen()
	release(h)
}

func ViaHelperTwice() {
	h := mustOpen()
	release(h)
	close(h) // want `^handle closed twice$`
}

// Ownership leaves with the value: passed on, returned, stored, captured.
func Transferred() {
	h := mustOpen()
	use(h)
}

func Returned() *H { return mustOpen() }

func Stored() {
	h := mustOpen()
	global = h
}

func Captured() func() {
	h := mustOpen()
	return func() { _ = h.n }
}

func Spawned() {
	h := mustOpen()
	go func() { close(h) }()
}

func Discarded() {
	mustOpen() // want `^handle leaked: result of mustOpen discarded, nothing can release it$`
}

func Blank() {
	_ = mustOpen() // want `^handle leaked: result assigned to _, nothing can release it$`
}
