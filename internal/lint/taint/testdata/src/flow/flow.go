// Package flow exercises the taint engine: secret() results are plaintext,
// key() results key material, and the test analyzer reports what reaches
// sink().
package flow

import "crypto/subtle"

func secret() []byte { return nil }

func key() []byte { return nil }

func clean() []byte { return nil }

func sink(v any) {}

func cond() bool { return false }

type box struct{ a, b []byte }

// Strong update: reassigning a plain variable replaces its labels.
func strongUpdate() {
	x := secret()
	sink(x) // want `^tainted: plaintext$`
	x = key()
	sink(x) // want `^tainted: key$`
	x = clean()
	sink(x)
}

// Weak update: stores through a field join into the base object; a later
// store cannot recall what an earlier one put there.
func weakUpdate() {
	var s box
	s.a = secret()
	s.b = key()
	sink(s) // want `^tainted: plaintext\+key$`
}

// Taint on one branch reaches the merge.
func merge() {
	x := clean()
	if cond() {
		x = secret()
	}
	sink(x) // want `^tainted: plaintext$`
}

// A closure's assignments are may-effects joined in where it is created;
// its body sees the state it captured.
func closureCapture() {
	var x []byte
	set := func() { x = secret() }
	set()
	sink(x) // want `^tainted: plaintext$`
	y := key()
	show := func() {
		sink(y) // want `^tainted: key$`
	}
	show()
}

// A channel is a conduit: sends accumulate, receives read everything sent.
func channelConduit() {
	ch := make(chan []byte, 2)
	ch <- secret()
	ch <- key()
	sink(<-ch) // want `^tainted: plaintext\+key$`
}

// A spawned goroutine's send feeds the same conduit.
func goConduit() {
	ch := make(chan []byte, 1)
	go func() { ch <- secret() }()
	v := <-ch
	sink(v) // want `^tainted: plaintext$`
}

func parse(b []byte) ([]byte, error) { return b, nil }

// Error results are sentinels: only the value result carries the labels
// parse's summary proves.
func cleanErrors() {
	v, err := parse(secret())
	sink(v) // want `^tainted: plaintext$`
	sink(err)
}

// len, cap and crypto/subtle verdicts are declared channels.
func sanitizers() {
	s := secret()
	sink(len(s))
	sink(subtle.ConstantTimeCompare(s, key()))
	sink(s[0]) // want `^tainted: plaintext$`
}

func boom(a, b string) { panic(b) }

// A sink inside a callee is reached through its summary, only by the
// argument that flows there.
func callSite() {
	boom(string(secret()), "") // no finding: a does not reach the panic
	boom("", string(secret())) // want `^reaches panic inside boom$`
}
