package typestate

import (
	"go/token"
	"testing"
)

// TestJoinPhase pins the pairing lattice: the join must be symmetric,
// idempotent, and collapse pending/held vs released into maybe so a
// conditionally-released resource is never reported as a definite
// double release.
func TestJoinPhase(t *testing.T) {
	phases := []int8{phasePending, phaseHeld, phaseDeferred, phaseReleased, phaseMaybe, phaseKilled}
	for _, p := range phases {
		if got := joinPhase(p, p); got != p {
			t.Errorf("joinPhase(%d, %d) = %d, want idempotent", p, p, got)
		}
		for _, q := range phases {
			if ab, ba := joinPhase(p, q), joinPhase(q, p); ab != ba {
				t.Errorf("joinPhase not symmetric: (%d,%d)=%d but (%d,%d)=%d", p, q, ab, q, p, ba)
			}
		}
	}
	cases := []struct{ a, b, want int8 }{
		{phasePending, phaseHeld, phaseHeld},
		{phasePending, phaseReleased, phaseMaybe},
		{phaseHeld, phaseReleased, phaseMaybe},
		{phaseHeld, phaseMaybe, phaseMaybe},
		{phaseReleased, phaseMaybe, phaseMaybe},
		{phaseHeld, phaseKilled, phaseKilled},
		{phaseMaybe, phaseKilled, phaseKilled},
		// A release deferred on one path only: the other path may leak.
		{phaseHeld, phaseDeferred, phaseMaybe},
		{phasePending, phaseDeferred, phaseMaybe},
		// Released at exit or already: no obligation either way.
		{phaseDeferred, phaseReleased, phaseReleased},
	}
	for _, c := range cases {
		if got := joinPhase(c.a, c.b); got != c.want {
			t.Errorf("joinPhase(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestJoinStateEarliestPos pins that a merge keeps the earliest
// acquisition position, so leak reports anchor at the first acquire.
func TestJoinStateEarliestPos(t *testing.T) {
	a := pairState{phase: phaseHeld, pos: token.Pos(40)}
	b := pairState{phase: phaseHeld, pos: token.Pos(10)}
	if got := joinState(a, b); got.pos != token.Pos(10) {
		t.Errorf("joinState pos = %d, want 10", got.pos)
	}
	if got := joinState(pairState{phase: phaseHeld}, b); got.pos != token.Pos(10) {
		t.Errorf("joinState with zero pos = %d, want 10", got.pos)
	}
}

// TestMustJoinRanked pins the ranked join: a ranked obligation absent on
// one incoming path counts as released there, so it is not held after the
// merge, while unranked obligations keep may-join semantics.
func TestMustJoinRanked(t *testing.T) {
	lat := pairLat{ranked: []bool{true, false}}
	lock, pin := pairKey{res: 0}, pairKey{res: 1}
	dst := pairFact{lock: {phase: phaseHeld, pos: 5}, pin: {phase: phaseHeld, pos: 7}}
	got, changed := lat.Join(lat.Clone(dst), pairFact{})
	if !changed || got[lock].holding() {
		t.Errorf("ranked lock held on one path only: %+v, want not held", got[lock])
	}
	if got[pin].phase != phaseHeld {
		t.Errorf("unranked pin = %+v, want still held (may-join)", got[pin])
	}
	got, _ = lat.Join(pairFact{}, pairFact{lock: {phase: phaseDeferred, pos: 5}})
	if got[lock].holding() {
		t.Errorf("ranked lock absent on the first path: %+v, want not held", got[lock])
	}
	both, _ := lat.Join(lat.Clone(dst), pairFact{lock: {phase: phaseDeferred, pos: 3}})
	if both[lock].phase != phaseMaybe {
		t.Errorf("held ⊔ deferred = %d, want maybe", both[lock].phase)
	}
	if again, _ := lat.Join(pairFact{lock: {phase: phaseHeld}}, pairFact{lock: {phase: phaseHeld}}); !again[lock].holding() {
		t.Errorf("ranked lock held on both paths: %+v, want held", again[lock])
	}
}

// TestChainJoin pins the chain lattice: establishment is must (min),
// reset position is the earliest, counts are per-path maxima.
func TestChainJoin(t *testing.T) {
	lat := chainLat{entry: 0, nMax: 1}
	dst := chainFact{estab: 2, resetPos: token.Pos(30), counts: []uint8{1}}
	src := chainFact{estab: 1, resetPos: token.Pos(20), counts: []uint8{3}}
	got, changed := lat.Join(lat.Clone(dst), src)
	if !changed {
		t.Fatalf("Join reported no change")
	}
	if got.estab != 1 {
		t.Errorf("estab = %d, want 1 (must-join takes the minimum)", got.estab)
	}
	if got.resetPos != token.Pos(20) {
		t.Errorf("resetPos = %d, want 20 (earliest reset)", got.resetPos)
	}
	if got.counts[0] != 3 {
		t.Errorf("counts[0] = %d, want 3 (per-path maximum)", got.counts[0])
	}
	// Entry-dependent beats any proven level: -1 is the weakest state.
	got, _ = lat.Join(lat.Clone(got), chainFact{estab: -1, counts: []uint8{0}})
	if got.estab != -1 {
		t.Errorf("estab = %d, want -1 after joining an entry-dependent path", got.estab)
	}
}
