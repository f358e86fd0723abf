package core

import (
	"testing"
	"testing/quick"

	"upcbh/internal/upc"
)

// Property: NodeRef packing round-trips any (kind, thread, index) the
// runtime can produce. The one-word tree slot (the reason for the
// packing) depends on this encoding being lossless.
func TestQuickNodeRefRoundTrip(t *testing.T) {
	f := func(thr uint16, idx uint32, body bool) bool {
		r := upc.Ref{Thr: int32(thr % 0x4000), Idx: int32(idx & 0x7fffffff)}
		var nr NodeRef
		if body {
			nr = BodyRef(r)
		} else {
			nr = CellRef(r)
		}
		if nr.IsNil() {
			return false
		}
		if body != nr.IsBody() || body == nr.IsCell() {
			return false
		}
		return nr.Ref() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNilNode(t *testing.T) {
	if !NilNode.IsNil() || NilNode.IsBody() || NilNode.IsCell() {
		t.Error("NilNode misclassified")
	}
	got := BodyRef(upc.Ref{Thr: 3, Idx: 99})
	if !got.IsBody() || got.Ref() != (upc.Ref{Thr: 3, Idx: 99}) {
		t.Errorf("slot round trip failed: %v", got.Ref())
	}
}

func TestPhaseTimes(t *testing.T) {
	a := PhaseTimes{1, 2, 3, 4, 5, 6}
	b := PhaseTimes{6, 5, 4, 3, 2, 1}
	if a.Total() != 21 {
		t.Errorf("Total = %v", a.Total())
	}
	sum := a
	sum.Add(b)
	for i := range sum {
		if sum[i] != 7 {
			t.Errorf("Add[%d] = %v", i, sum[i])
		}
	}
	mx := a
	mx.MaxInto(b)
	want := PhaseTimes{6, 5, 4, 4, 5, 6}
	if mx != want {
		t.Errorf("MaxInto = %v", mx)
	}
}

func TestPhaseAndLevelStrings(t *testing.T) {
	if PhaseTree.String() != "Tree-building" || PhaseForce.String() != "Force Comp." {
		t.Error("phase names changed; the paper-style tables depend on them")
	}
	if Phase(99).String() == "" || Level(99).String() == "" {
		t.Error("out-of-range values must still format")
	}
}
