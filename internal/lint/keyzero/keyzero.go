// Package keyzero enforces key-material lifetime hygiene: a value holding
// raw key bytes obtained directly from a generator, deriver or unwrap call
// must be zeroized on every return path, unless ownership leaves the
// function (returned, stored into a field, map, slice element, global,
// composite literal or channel, address-taken, or captured by a closure).
//
// It is a typestate spec with one resource. Deliberate scope limits:
//
//   - Only DIRECT source calls create obligations: the trust
//     vocabulary's Owned rows (aecrypto.GenerateKey / deriveKey /
//     UnwrapKey, keys Provider.Unwrap, ecdh ECDH, attestation.DeriveSecret,
//     enclave openSealed). Values that arrive
//     through an intermediate helper are that helper's responsibility —
//     or an ownership transfer, as in the driver's CEK cache.
//   - Passing the value to a call is a borrow, not a transfer (Borrow):
//     the callee returns, the local still owns the bytes.
//   - The property is per return path (EveryPath): zeroizing, or
//     deferring the zeroize, in one branch does not discharge the other,
//     even where the branches merge before the return.
//   - Error return paths (a return whose error-typed result is not the
//     nil identifier) are exempt (WaiveOnError): on those paths the source
//     either failed (the local is nil) or the caller observes the
//     failure. Panic-terminated paths never reach the exit block at all.
//
// Zeroization is any function or method named Zeroize or zero with the
// tracked value as receiver or first argument (x[:] of an array counts),
// called directly, deferred, or inside a deferred closure.
package keyzero

import (
	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/trust"
	"alwaysencrypted/internal/lint/typestate"
)

var spec = &typestate.Spec{
	Name:     "keyzero",
	Doc:      "key material from generate/derive/unwrap calls must be zeroized on every return path",
	Packages: []string{"aecrypto", "keys", "enclave", "attestation", "driver"},
	Resources: []typestate.Resource{{
		Name:       "key material",
		Acquire:    trust.Patterns(trust.Owned),
		AcquireKey: typestate.IdentResult,
		Release: []analysis.CallPat{
			{Pkg: "*", Recv: "*", Name: "Zeroize"},
			{Pkg: "*", Recv: "*", Name: "zero"},
		},
		ReleaseKey:   typestate.IdentSubject,
		Borrow:       true,
		EveryPath:    true,
		WaiveOnError: true,
		LeakMsg:      "key material is not zeroized on every return path: call aecrypto.Zeroize before returning, or transfer ownership explicitly",
	}},
}

// Analyzer is the keyzero pass.
var Analyzer *analysis.Analyzer = typestate.NewAnalyzer(spec)
