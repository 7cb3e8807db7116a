// Package attestchain statically enforces the §4.2 driver-side
// attestation ordering: attestation.Policy.Verify must succeed before
// any CEK is sealed for the enclave session, before any CEK is
// released to the server with InstallCEK, and before any DDL statement
// is authorized. A connection failover resets the chain — every
// protocol step after a reconnect must re-establish verification
// first, so the "reuse the old session's trust on the new server"
// class of bug is caught at lint time.
//
// The protocol is a typestate chain spec: levels start → attested →
// keyed, with Verify establishing attested, SealForSession /
// InstallCEK / Authorize requiring it, and Conn.failover resetting.
// Exported driver functions are protocol roots (they start at a
// definite level start); helpers are analyzed entry-dependent with
// their requirements folded into callers through summaries. The error
// result of Verify must also be consumed: discarding it is
// indistinguishable from skipping verification.
package attestchain

import (
	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/typestate"
)

var spec = &typestate.Spec{
	Name:     "attestchain",
	Doc:      "attestation.Verify must precede CEK sealing, CEK install and statement authorization; failover resets the chain",
	Packages: []string{"driver"},
	Chain: &typestate.Chain{
		Levels:       []string{"start", "attestation verified", "CEKs installed"},
		RootExported: true,
		Events: []typestate.Event{
			{
				Call:      analysis.CallPat{Pkg: "attestation", Recv: "Policy", Name: "Verify"},
				Establish: 1,
				Desc:      "attestation verified",
			},
			{
				Call:    analysis.CallPat{Pkg: "enclave", Name: "SealForSession"},
				Require: 1,
				Desc:    "CEK sealed for enclave session",
			},
			{
				Call:      analysis.CallPat{Pkg: "tds", Recv: "Conn", Name: "InstallCEK"},
				Require:   1,
				Establish: 2,
				Desc:      "CEK released to server",
			},
			{
				Call:    analysis.CallPat{Pkg: "tds", Recv: "Conn", Name: "Authorize"},
				Require: 1,
				Desc:    "statement authorized",
			},
			{
				Call:  analysis.CallPat{Pkg: "driver", Recv: "Conn", Name: "failover"},
				Reset: true,
				Desc:  "connection failed over",
			},
		},
	},
	MustCheck: []typestate.MustCheck{
		{
			Call: analysis.CallPat{Pkg: "attestation", Recv: "Policy", Name: "Verify"},
			Msg:  "attestation verdict must be checked",
		},
	},
}

// Analyzer enforces the driver-side attestation ordering protocol.
var Analyzer *analysis.Analyzer = typestate.NewAnalyzer(spec)
