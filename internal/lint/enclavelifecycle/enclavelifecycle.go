// Package enclavelifecycle statically enforces the enclave restart
// discipline: swapping a fresh enclave in with Engine.ReplaceEnclave
// obligates the caller to invalidate the plan cache before the
// function returns — cached plans embed expression handles minted by
// the old enclave, and evaluating them against the new one fails (or
// worse, silently mismatches sessions). The PR 2 stale-plan bug is the
// canonical instance; this analyzer turns that regression test into a
// statically caught class.
//
// It also tracks enclave teardown as a terminal state: after
// Enclave.Close, any session/CEK/expression call on the same enclave
// value is a use-after-close finding.
package enclavelifecycle

import (
	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/typestate"
)

var spec = &typestate.Spec{
	Name: "enclavelifecycle",
	Doc:  "ReplaceEnclave obligates InvalidatePlans before return; a closed enclave must not serve sessions, CEKs or expressions",
	Resources: []typestate.Resource{
		{
			Name: "plancache",
			Acquire: []analysis.CallPat{
				{Pkg: "engine", Recv: "Engine", Name: "ReplaceEnclave"},
			},
			AcquireKey: typestate.IdentRecv,
			Release: []analysis.CallPat{
				{Pkg: "engine", Recv: "Engine", Name: "InvalidatePlans"},
			},
			ReleaseKey: typestate.IdentRecv,
			Idempotent: true,
			LeakMsg:    "enclave replaced without invalidating cached plans: stale expression handles from the old enclave survive the restart",
		},
	},
	Terminals: []typestate.Terminal{
		{
			Kill: analysis.CallPat{Pkg: "enclave", Recv: "Enclave", Name: "Close"},
			Use: []analysis.CallPat{
				{Pkg: "enclave", Recv: "Enclave", Name: "NewSession"},
				{Pkg: "enclave", Recv: "Enclave", Name: "InstallCEK"},
				{Pkg: "enclave", Recv: "Enclave", Name: "AuthorizeStatement"},
				{Pkg: "enclave", Recv: "Enclave", Name: "RegisterExpression"},
				{Pkg: "enclave", Recv: "Enclave", Name: "EvalExpression"},
				{Pkg: "enclave", Recv: "Enclave", Name: "EvalExpressionBatch"},
			},
			Msg: "use of closed enclave",
		},
	},
}

// Analyzer enforces the enclave restart/teardown lifecycle.
var Analyzer *analysis.Analyzer = typestate.NewAnalyzer(spec)
