// Package borrowfix exercises a Borrow resource with EveryPath and
// WaiveOnError: newKey results must be wiped by Wipe (function or method)
// on every path into a non-error exit; passing a key to a call is only a
// loan.
package borrowfix

import "errors"

type buf []byte

func (b buf) Wipe() {}

func Wipe(b []byte) {}

func newKey() []byte             { return nil }
func newKeyErr() ([]byte, error) { return nil, nil }
func newBuf() buf                { return nil }
func newArr() [32]byte           { return [32]byte{} }
func derive(k []byte) []byte     { return k }
func cond() bool                 { return false }

var errEmpty = errors.New("empty")

func Borrowed() {
	k := newKey() // want `^key not wiped$`
	derive(k)
}

func Wiped() {
	k := newKey()
	derive(k)
	Wipe(k)
}

func WipedMethod() {
	b := newBuf()
	b.Wipe()
}

func WipedArray() {
	a := newArr()
	Wipe(a[:])
}

func WipedDeferred() {
	k := newKey()
	defer Wipe(k)
	derive(k)
}

func WipedDeferredClosure() {
	k := newKey()
	defer func() { Wipe(k) }()
	derive(k)
}

// EveryPath: a wipe on one branch leaves the merged path leaking.
func WipedOneBranch() {
	k := newKey() // want `^key not wiped$`
	if cond() {
		Wipe(k)
	}
	derive(k)
}

func DeferredOneBranch() {
	k := newKey() // want `^key not wiped$`
	if cond() {
		defer Wipe(k)
	}
	derive(k)
}

func WipedBothBranches() {
	k := newKey()
	if cond() {
		Wipe(k)
	} else {
		defer Wipe(k)
	}
	derive(k)
}

// Every error exit is waived, even after the key was used.
func ErrorExits() error {
	k, err := newKeyErr()
	if err != nil {
		return err
	}
	if len(k) == 0 {
		return errEmpty
	}
	Wipe(k)
	return nil
}

func Returned() []byte {
	k := newKey()
	return k
}
