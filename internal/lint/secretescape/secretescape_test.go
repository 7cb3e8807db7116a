package secretescape_test

import (
	"testing"

	"alwaysencrypted/internal/lint/analysis/analysistest"
	"alwaysencrypted/internal/lint/secretescape"
)

// TestSecretEscape covers the vocabulary's roots (Decrypt, Open,
// NewOpener, NewSealer) at the doors, and the trusted packages themselves.
func TestSecretEscape(t *testing.T) {
	analysistest.Run(t, "testdata", secretescape.Analyzer, "enclave", "aecrypto", "hostobs")
}

// TestEscapeEvents: each door fires — a global, a spawn by capture or by
// argument, a foreign send — and stores through a parameter and returns,
// the declared exits, stay silent.
func TestEscapeEvents(t *testing.T) {
	analysistest.Run(t, "testdata", secretescape.Analyzer, "events/enclave")
}

// TestConduitAndBorrows: a frame-local channel is a conduit, not a door,
// and carries the secret to what is received from it; plain call arguments
// are borrows; a closure handed to an unresolved function value is a door.
func TestConduitAndBorrows(t *testing.T) {
	analysistest.Run(t, "testdata", secretescape.Analyzer, "conduit/enclave")
}

// TestOwnershipTransfer: filing a secret into a local aggregate hands it to
// the aggregate, so sharing the aggregate through clean fields is silent,
// while a closure that mentions the secret-holding field captures it.
func TestOwnershipTransfer(t *testing.T) {
	analysistest.Run(t, "testdata", secretescape.Analyzer, "ownership/enclave")
}

// TestFlowSensitivity: a secret killed before the spawn, or reaching it
// only on a path that returned, does not escape; a container that aliases
// it carries it into the spawn.
func TestFlowSensitivity(t *testing.T) {
	analysistest.Run(t, "testdata", secretescape.Analyzer, "flow/enclave")
}
