package typestate

import (
	"testing"

	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/analysis/analysistest"
)

// The specs below exercise one engine feature each against a fixture
// package whose want comments pin what the machines report.

func TestChainMachine(t *testing.T) {
	call := func(name string) analysis.CallPat { return analysis.CallPat{Pkg: "chainfix", Name: name} }
	analysistest.Run(t, "testdata", NewAnalyzer(&Spec{
		Name: "chain",
		Doc:  "chain machine test spec",
		Chain: &Chain{
			Levels:       []string{"start", "open", "ready"},
			RootExported: true,
			Events: []Event{
				{Call: call("open"), Establish: 1},
				{Call: call("ready"), Require: 1, Establish: 2},
				{Call: call("use"), Require: 2},
				{Call: call("reset"), Reset: true},
				{Call: call("send"), Max: 1},
			},
		},
	}), "chainfix")
}

func TestPairingMachine(t *testing.T) {
	analysistest.Run(t, "testdata", NewAnalyzer(&Spec{
		Name: "pairing",
		Doc:  "pairing machine test spec",
		Resources: []Resource{
			{
				Name: "handle",
				Acquire: []analysis.CallPat{
					{Pkg: "pairfix", Name: "open"},
					{Pkg: "pairfix", Name: "mustOpen"},
				},
				AcquireKey: IdentResult,
				Release:    []analysis.CallPat{{Pkg: "pairfix", Name: "close"}},
				ReleaseKey: 0,
				LeakMsg:    "handle leaked",
				DoubleMsg:  "handle closed twice",
			},
			{
				Name:       "latch",
				Acquire:    []analysis.CallPat{{Pkg: "pairfix", Recv: "L", Name: "Lock"}},
				AcquireKey: IdentRecv,
				Release:    []analysis.CallPat{{Pkg: "pairfix", Recv: "L", Name: "Unlock"}},
				ReleaseKey: IdentRecv,
				LeakMsg:    "latch held",
			},
		},
	}), "pairfix")
}

// TestBorrowResource covers the fields keyzero is built from: Borrow,
// EveryPath, WaiveOnError, IdentSubject and wildcard patterns.
func TestBorrowResource(t *testing.T) {
	analysistest.Run(t, "testdata", NewAnalyzer(&Spec{
		Name: "borrow",
		Doc:  "borrow resource test spec",
		Resources: []Resource{{
			Name: "key",
			Acquire: []analysis.CallPat{
				{Pkg: "borrowfix", Name: "newKey"},
				{Pkg: "borrowfix", Name: "newKeyErr"},
				{Pkg: "borrowfix", Name: "newBuf"},
				{Pkg: "borrowfix", Name: "newArr"},
			},
			AcquireKey:   IdentResult,
			Release:      []analysis.CallPat{{Pkg: "*", Recv: "*", Name: "Wipe"}},
			ReleaseKey:   IdentSubject,
			Borrow:       true,
			EveryPath:    true,
			WaiveOnError: true,
			LeakMsg:      "key not wiped",
		}},
	}), "borrowfix")
}

// TestRankedResources covers the fields lockorder is built from: Rank,
// must-hold merges, may-acquire summaries, deferred releases held for
// ordering, and release-less (call-scoped) ranked resources.
func TestRankedResources(t *testing.T) {
	lock := func(field string, rank int) Resource {
		pat := func(name string) analysis.CallPat {
			return analysis.CallPat{Pkg: "rankfix", Recv: "S", Field: field, Name: name}
		}
		return Resource{
			Name:       "S." + field,
			Rank:       rank,
			Acquire:    []analysis.CallPat{pat("Lock")},
			AcquireKey: IdentSingleton,
			Release:    []analysis.CallPat{pat("Unlock")},
			ReleaseKey: IdentSingleton,
			Reentrant:  true,
		}
	}
	analysistest.Run(t, "testdata", NewAnalyzer(&Spec{
		Name: "rank",
		Doc:  "ranked resource test spec",
		Resources: []Resource{
			lock("a", 10),
			lock("b", 20),
			{Name: "Store", Rank: 30, Acquire: []analysis.CallPat{{Pkg: "rankfix", Recv: "Store", Name: "*"}}},
			lock("c", 40),
		},
	}), "rankfix")
}
