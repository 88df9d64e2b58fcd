package main

import (
	"math"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: "r", Name: "root", Start: 0, Dur: 10},
		// Children covering [1,4] ∪ [3,6] ∪ [8,12]; the last is clipped
		// to the root's end, so they cover 5 + 2 = 7 ms of it.
		{ID: "a", Parent: "r", Name: "child", Start: 1, Dur: 3},
		{ID: "b", Parent: "r", Name: "child", Start: 3, Dur: 3},
		{ID: "c", Parent: "r", Name: "other", Start: 8, Dur: 4},
		// A grandchild inside a: not a child of root.
		{ID: "g", Parent: "a", Name: "leaf", Start: 2, Dur: 1},
		// A child contained in another child adds no coverage.
		{ID: "d", Parent: "r", Name: "other", Start: 4, Dur: 1},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"root":  10 - 7,
		"child": (3 - 1) + 3, // a minus its grandchild, b whole
		"other": 4 + 1,       // c and d have no children
		"leaf":  1,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d span names, want %d: %v", len(got), len(want), got)
	}
}
