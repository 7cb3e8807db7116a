// Package tds is a fixture of the wire layer: encoded messages must not
// contain plaintext values.
package tds

import "sqltypes"

// ExecReq is a well-formed wire message: ciphertext and encodings only.
type ExecReq struct {
	Query  string
	Params map[string][]byte
}

// BadRow leaks plaintext onto the wire.
type BadRow struct {
	Cells []sqltypes.Value // want `exported struct BadRow carries plaintext type \[\]sqltypes\.Value`
}

// Exec is a clean wire writer.
func Exec(query string, params map[string][]byte) ([][]byte, error) { return nil, nil }

// SendRow writes plaintext out.
func SendRow(v sqltypes.Value) error { return nil } // want `exported SendRow accepts plaintext-carrying type sqltypes\.Value`
