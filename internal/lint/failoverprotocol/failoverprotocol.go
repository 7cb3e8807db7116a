// Package failoverprotocol statically enforces the driver's reconnect
// discipline (PR 4's exactly-once semantics, as a checked class):
//
//   - A reconnect that swaps the transport (Conn.tds = ...) must reset
//     every piece of session security state before returning: the
//     session secret flag, the installed-CEK set, the client DH key,
//     and the describe cache. Each reset is a separate obligation, so
//     a refactor that drops one is a distinct finding.
//   - A failover must be followed on every non-error path by either a
//     rerun of the request — the once callback of Conn.retry, the one
//     wrapper Exec and BulkInsert share, or execOnce called directly — or
//     the ErrIndeterminate verdict: a swallowed failover would silently
//     lose a statement outcome.
//   - A request has a per-path budget of two executions (first try plus
//     one rerun): a third execution on a single path is a transparent
//     resend loop, exactly what exactly-once forbids.
package failoverprotocol

import (
	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/typestate"
)

func resetObligation(name string, release typestate.FieldPat, msg string) typestate.Resource {
	return typestate.Resource{
		Name: name,
		AcquireSet: []typestate.FieldPat{
			{Pkg: "driver", Recv: "Conn", Field: "tds"},
		},
		ReleaseSet:   []typestate.FieldPat{release},
		RootIdentity: true,
		LeakMsg:      msg,
	}
}

var spec = &typestate.Spec{
	Name:     "failoverprotocol",
	Doc:      "reconnect must fully reset session state; failed-over DML must retry or surface ErrIndeterminate, never resend transparently",
	Packages: []string{"driver"},
	Chain: &typestate.Chain{
		Levels:       []string{"start"},
		RootExported: true,
		Events: []typestate.Event{
			{
				Call:  analysis.CallPat{Pkg: "driver", Recv: "Conn", Name: "failover"},
				Reset: true,
				Desc:  "connection failed over",
			},
			{
				Call: analysis.CallPat{Pkg: "driver", Recv: "Conn", Name: "execOnce"},
				Max:  2,
				Desc: "statement executed",
			},
			{
				Call: analysis.CallPat{Pkg: "driver", Name: "once"},
				Max:  2,
				Desc: "request run",
			},
		},
	},
	Resources: []typestate.Resource{
		resetObligation("secret-reset",
			typestate.FieldPat{Pkg: "driver", Recv: "Conn", Field: "hasSecret", Value: "false"},
			"reconnect replaced the transport without clearing the session secret (hasSecret must become false)"),
		resetObligation("cek-reset",
			typestate.FieldPat{Pkg: "driver", Recv: "Conn", Field: "installedCEKs"},
			"reconnect replaced the transport without resetting the installed-CEK set"),
		resetObligation("dh-reset",
			typestate.FieldPat{Pkg: "driver", Recv: "Conn", Field: "dh", Value: "nil"},
			"reconnect replaced the transport without discarding the client DH key (dh must become nil)"),
		{
			Name: "describe-cache-reset",
			AcquireSet: []typestate.FieldPat{
				{Pkg: "driver", Recv: "Conn", Field: "tds"},
			},
			Release: []analysis.CallPat{
				{Pkg: "driver", Recv: "Cache", Name: "invalidateDescribes"},
			},
			ReleaseKey:   typestate.IdentRecv,
			RootIdentity: true,
			LeakMsg:      "reconnect replaced the transport without invalidating cached describe results (they embed the dead enclave session)",
		},
		{
			Name: "failover-outcome",
			Acquire: []analysis.CallPat{
				{Pkg: "driver", Recv: "Conn", Name: "failover"},
			},
			AcquireKey:   typestate.IdentSingleton,
			WaiveOnError: true,
			Release: []analysis.CallPat{
				{Pkg: "driver", Recv: "Conn", Name: "execOnce"},
				{Pkg: "driver", Name: "once"},
			},
			ReleaseKey: typestate.IdentSingleton,
			ReleaseUse: []typestate.IdentPat{
				{Pkg: "driver", Name: "ErrIndeterminate"},
			},
			// Two runs without an intervening failover (the stale-describe
			// rerun) are not a protocol violation —
			// this resource only guards that a failover is followed by an
			// outcome; the Max budget above separately bounds retries.
			Idempotent: true,
			LeakMsg:    "failover not followed by a retry or ErrIndeterminate: the statement outcome is silently dropped",
		},
	},
}

// Analyzer enforces the reconnect/retry protocol.
var Analyzer *analysis.Analyzer = typestate.NewAnalyzer(spec)
