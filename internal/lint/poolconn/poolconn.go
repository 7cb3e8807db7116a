// Package poolconn statically enforces the connection-pool checkout
// protocol of internal/pool:
//
//   - every Acquire/AcquireRead result must be Released on exactly one
//     point of every path — a leaked checkout holds a semaphore slot
//     forever (the pool wedges at MaxConns), a double release would
//     hand one physical connection to two workers;
//   - the error results of PooledConn.Exec and Commit must be checked:
//     they are the only place driver.ErrIndeterminate — "this DML's
//     outcome is unknown, the primary died mid-statement" — surfaces,
//     and dropping one silently converts exactly-once into maybe-twice.
package poolconn

import (
	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/typestate"
)

var spec = &typestate.Spec{
	Name: "poolconn",
	Doc:  "pool checkout pairing: Acquire/AcquireRead must Release on every path, never twice; Exec/Commit errors (ErrIndeterminate) must be checked",
	Resources: []typestate.Resource{
		{
			Name: "checkout",
			Acquire: []analysis.CallPat{
				{Pkg: "pool", Recv: "Pool", Name: "Acquire"},
				{Pkg: "pool", Recv: "Pool", Name: "AcquireRead"},
			},
			AcquireKey: typestate.IdentResult,
			Release: []analysis.CallPat{
				{Pkg: "pool", Recv: "PooledConn", Name: "Release"},
			},
			ReleaseKey: typestate.IdentRecv,
			LeakMsg:    "pooled connection checked out but not released on every path",
			DoubleMsg:  "pooled connection released twice on one path",
		},
	},
	MustCheck: []typestate.MustCheck{
		{
			Call: analysis.CallPat{Pkg: "pool", Recv: "PooledConn", Name: "Exec"},
			Msg:  "ErrIndeterminate surfaces through Exec's error",
		},
		{
			Call: analysis.CallPat{Pkg: "pool", Recv: "PooledConn", Name: "Commit"},
			Msg:  "ErrIndeterminate surfaces through Commit's error",
		},
	},
}

// Analyzer enforces the pool checkout protocol.
var Analyzer *analysis.Analyzer = typestate.NewAnalyzer(spec)
