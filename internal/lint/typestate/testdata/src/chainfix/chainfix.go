// Package chainfix exercises the chain machine: open establishes level 1,
// ready requires 1 and establishes 2, use requires 2, reset drops to 0, and
// send may run once per path. Exported functions start at level 0.
package chainfix

func open()  {}
func ready() {}
func use()   {}
func reset() {}
func send()  {}

func cond() bool { return false }

func Good() {
	open()
	ready()
	use()
}

func Unready() {
	open()
	use() // want `^use called without ready$`
}

func AfterReset() {
	open()
	ready()
	reset()
	use() // want `^use called without ready \(protocol state reset at .*chainfix.go:28:2\)$`
}

// A level holds after a merge only if every incoming path proved it.
func Merge() {
	open()
	if cond() {
		ready()
	}
	use() // want `^use called without ready$`
}

func Twice() {
	send()
	send() // want `^send called more than 1 times on one path$`
}

func Looped() {
	for cond() {
		send() // want `^send called more than 1 times on one path$`
	}
}

// Helpers are entry-dependent: what they establish folds into callers, and
// what they require is checked at the call site.
func prepare() {
	open()
	ready()
}

func ViaHelper() {
	prepare()
	use()
}

func needsReady() { use() }

func CallsNeedsReady() {
	open()
	needsReady() // want `^call to needsReady requires ready \(use called inside\)$`
}
