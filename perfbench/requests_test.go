package main

import (
	"bytes"
	"slices"
	"testing"
)

// runLists returns what a run's first three server processes send, two
// measured passes each.
func runLists(t *testing.T, wl workload, seed uint64) [][]request {
	t.Helper()
	var out [][]request
	for process := 0; process < 3; process++ {
		lists, err := wl.lists(seed, process, 1+2*process, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, lists...)
	}
	return out
}

// seqOf renders a run's requests as one byte sequence.
func seqOf(t *testing.T, wl workload, seed uint64) [][]byte {
	var out [][]byte
	for _, l := range runLists(t, wl, seed) {
		for _, r := range l {
			out = append(out, r.Body)
		}
	}
	return out
}

func TestSeededRequestSequences(t *testing.T) {
	for _, wl := range workloadTable {
		t.Run(wl.name, func(t *testing.T) {
			a, b := seqOf(t, wl, 7), seqOf(t, wl, 7)
			if !slices.EqualFunc(a, b, bytes.Equal) {
				t.Fatal("one seed gave two different request sequences")
			}
			c := seqOf(t, wl, 8)
			if slices.EqualFunc(a, c, bytes.Equal) {
				t.Fatal("two seeds gave the same order")
			}
			if wl.name == "verify-shared" {
				// The verify seed is drawn per pass, so bodies differ
				// between seeds; the set of compilations must not.
				a, c = stripVerifySeeds(t, wl, 7), stripVerifySeeds(t, wl, 8)
			}
			sortBytes(a)
			sortBytes(c)
			if !slices.EqualFunc(a, c, bytes.Equal) {
				t.Fatal("two seeds gave different request sets")
			}
		})
	}
}

// stripVerifySeeds returns the request IDs of a run, which name each
// compilation without its verify seed.
func stripVerifySeeds(t *testing.T, wl workload, seed uint64) [][]byte {
	var out [][]byte
	for _, l := range runLists(t, wl, seed) {
		for _, r := range l {
			out = append(out, []byte(r.ID))
		}
	}
	return out
}

func sortBytes(v [][]byte) { slices.SortFunc(v, bytes.Compare) }

func TestWorkloadShapes(t *testing.T) {
	hot, err := hotHitsList(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != 216 || len(distinctIDs(hot)) != 108 {
		t.Fatalf("hot-hits: %d requests, %d distinct; want 216 and 108", len(hot), len(distinctIDs(hot)))
	}
	cold := gridColdList(1, 0)
	if len(cold) != 108 {
		t.Fatalf("grid-cold: %d requests, want 108", len(cold))
	}
	// Cell-major: each cell's four compilers are adjacent and in order.
	for i := 0; i < len(cold); i += len(gridCompilers) {
		for j, comp := range gridCompilers {
			if !bytes.Contains(cold[i+j].Body, []byte(`"compiler":"`+comp+`"`)) {
				t.Fatalf("grid-cold request %d is not %s: %s", i+j, comp, cold[i+j].Body)
			}
		}
	}
	v0, v1 := verifyList(1, 0, 0), verifyList(1, 0, 1)
	if len(v0) != 24 || verifyPassSeed(1, 0) == verifyPassSeed(1, 1) {
		t.Fatalf("verify-shared: %d requests per pass, pass seeds %d and %d", len(v0), verifyPassSeed(1, 0), verifyPassSeed(1, 1))
	}
	if bytes.Equal(v0[0].Body, v1[0].Body) || v0[0].ID != v1[0].ID {
		t.Fatal("verify-shared passes must differ only in their verify seed")
	}
	// Each server process of a run sends its own order.
	if bytes.Equal(cold[0].Body, gridColdList(1, 1)[0].Body) && bytes.Equal(cold[4].Body, gridColdList(1, 1)[4].Body) {
		t.Fatal("two server processes got the same grid-cold order")
	}
}
