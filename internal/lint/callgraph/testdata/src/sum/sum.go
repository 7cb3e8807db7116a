// Package sum exercises the summary builder; the test analyzer reports each
// function's summary at its name.
package sum

// caller is declared before the helper it calls: the second summary pass
// folds pick's proven flow in, so only b reaches the result.
func caller(a, b []byte) []byte { return pick(a, b) } // want `^results=p1 sinks=-$`

func pick(x, y []byte) []byte { return y } // want `^results=p1 sinks=-$`

// viaConstant likewise sees that constant's result carries nothing.
func viaConstant(a []byte) []byte { return constant(a) } // want `^results=- sinks=-$`

func constant(a []byte) []byte { return nil } // want `^results=- sinks=-$`

// A sink records which parameters reach it.
func boom(a, b string) { panic(b) } // want `^results= sinks=format:panic@p1$`

// Sinks fold through callees, re-expressed over the caller's parameters.
func outer(x, y string) { boom(y, x) } // want `^results= sinks=format:panic@p0$`

// Methods count the receiver as parameter 0.
type T struct{ s string }

func (t T) fail(msg string) { panic(t.s) } // want `^results= sinks=format:panic@p0$`
