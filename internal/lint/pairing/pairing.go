// Package pairing statically enforces acquire/release discipline for
// the storage and engine resources whose imbalance deadlocks or leaks
// rather than crashes:
//
//   - buffer-pool pins: every Fetch/NewPage/NewPageAt result must be
//     Unpinned on every exit path (error-return paths while the pin's
//     error is still unchecked are exempt), never double-unpinned, and
//     never discarded unbound;
//   - frame latches: Frame.Latch Lock/Unlock and RLock/RUnlock must
//     pair on every path;
//   - WAL stream pins: PinStream/UnpinStream pair per stream id;
//     re-pinning is legitimate (progress updates), and functions that
//     never unpin locally (the ack goroutine) are owned elsewhere;
//   - arena pins: rowBatcher.pinned = true must be cleared on every
//     path, or join outer-row cells pin the arena forever;
//   - snapshot handles: every VersionStore.Acquire result must be
//     Released exactly once — a leaked snapshot pins the oldest-active
//     watermark and version-chain eviction stalls behind it (functions
//     that hand the handle to another owner are exempt);
//   - message sends: tds.Peer.Send refuses an oversized request and reports
//     a transport failure only through its error — discarding it leaves a
//     caller waiting for an answer to a message that never left.
package pairing

import (
	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/typestate"
)

var spec = &typestate.Spec{
	Name: "pairing",
	Doc:  "acquire/release pairing for buffer-pool pins, frame latches, WAL stream pins and arena pins; message send errors must be checked",
	Resources: []typestate.Resource{
		{
			Name: "framepin",
			Acquire: []analysis.CallPat{
				{Pkg: "storage", Recv: "BufferPool", Name: "Fetch"},
				{Pkg: "storage", Recv: "BufferPool", Name: "NewPage"},
				{Pkg: "storage", Recv: "BufferPool", Name: "NewPageAt"},
			},
			AcquireKey: typestate.IdentResult,
			Release: []analysis.CallPat{
				{Pkg: "storage", Recv: "BufferPool", Name: "Unpin"},
			},
			ReleaseKey: 0,
			LeakMsg:    "pinned buffer-pool frame not unpinned on every path",
			DoubleMsg:  "buffer-pool frame unpinned twice on one path",
		},
		{
			Name: "framelatch",
			Acquire: []analysis.CallPat{
				{Pkg: "storage", Recv: "Frame", Field: "Latch", Name: "Lock"},
			},
			AcquireKey: typestate.IdentRecv,
			Release: []analysis.CallPat{
				{Pkg: "storage", Recv: "Frame", Field: "Latch", Name: "Unlock"},
			},
			ReleaseKey: typestate.IdentRecv,
			LeakMsg:    "frame write latch not unlocked on every path",
			DoubleMsg:  "frame write latch unlocked twice on one path",
		},
		{
			Name: "framerlatch",
			Acquire: []analysis.CallPat{
				{Pkg: "storage", Recv: "Frame", Field: "Latch", Name: "RLock"},
			},
			AcquireKey: typestate.IdentRecv,
			Release: []analysis.CallPat{
				{Pkg: "storage", Recv: "Frame", Field: "Latch", Name: "RUnlock"},
			},
			ReleaseKey: typestate.IdentRecv,
			LeakMsg:    "frame read latch not unlocked on every path",
			DoubleMsg:  "frame read latch unlocked twice on one path",
		},
		{
			Name: "streampin",
			Acquire: []analysis.CallPat{
				{Pkg: "storage", Recv: "WAL", Name: "PinStream"},
			},
			AcquireKey: 0,
			Release: []analysis.CallPat{
				{Pkg: "storage", Recv: "WAL", Name: "UnpinStream"},
			},
			ReleaseKey:            0,
			Reentrant:             true,
			LeakNeedsLocalRelease: true,
			LeakMsg:               "WAL stream pinned but not unpinned on every path: truncation stalls behind a dead replica",
		},
		{
			Name: "snapshot",
			Acquire: []analysis.CallPat{
				{Pkg: "storage", Recv: "VersionStore", Name: "Acquire"},
			},
			AcquireKey: typestate.IdentResult,
			Release: []analysis.CallPat{
				{Pkg: "storage", Recv: "Snapshot", Name: "Release"},
			},
			ReleaseKey:            typestate.IdentRecv,
			LeakNeedsLocalRelease: true,
			LeakMsg:               "snapshot handle not released on every path: the read watermark pins version-chain eviction",
			DoubleMsg:             "snapshot released twice on one path",
		},
		{
			Name: "arenapin",
			AcquireSet: []typestate.FieldPat{
				{Pkg: "engine", Recv: "rowBatcher", Field: "pinned", Value: "true"},
			},
			ReleaseSet: []typestate.FieldPat{
				{Pkg: "engine", Recv: "rowBatcher", Field: "pinned", Value: "false"},
			},
			LeakMsg: "rowBatcher.pinned set without a clearing path: arena cells stay pinned after the join",
		},
	},
	MustCheck: []typestate.MustCheck{
		{
			Call: analysis.CallPat{Pkg: "tds", Recv: "Peer", Name: "Send"},
			Msg:  "a refused or failed send surfaces only through its error",
		},
	},
}

// Analyzer enforces acquire/release pairing across the storage and
// engine layers.
var Analyzer *analysis.Analyzer = typestate.NewAnalyzer(spec)
