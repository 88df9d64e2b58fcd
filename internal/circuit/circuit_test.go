package circuit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGateValidate(t *testing.T) {
	cases := []struct {
		g    Gate
		n    int
		ok   bool
		name string
	}{
		{New("h", []int{0}), 2, true, "h ok"},
		{New("h", []int{2}), 2, false, "h out of range"},
		{New("h", []int{-1}), 2, false, "h negative"},
		{New("cx", []int{0, 1}), 2, true, "cx ok"},
		{New("cx", []int{0, 0}), 2, false, "cx repeated qubit"},
		{New("cx", []int{0}), 2, false, "cx arity"},
		{New("rz", []int{0}, 0.5), 1, true, "rz ok"},
		{New("rz", []int{0}), 1, false, "rz missing param"},
		{New("u3", []int{0}, 1, 2, 3), 1, true, "u3 ok"},
		{New("u3", []int{0}, 1, 2), 1, false, "u3 missing param"},
		{New("bogus", []int{0}), 1, false, "unknown gate"},
		{New("ccx", []int{0, 1, 2}), 3, true, "ccx ok"},
		{New("ccx", []int{0, 1, 0}), 3, false, "ccx repeated first and last qubit"},
		{New("barrier", []int{0, 1, 2}), 3, true, "barrier ok"},
		{New("barrier", []int{5}), 3, false, "barrier out of range"},
	}
	for _, tc := range cases {
		err := tc.g.Validate(tc.n)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

// Appending a valid gate must not allocate beyond the gate slice itself.
func TestGateValidateAllocatesNothing(t *testing.T) {
	g := New("ccx", []int{0, 1, 2})
	if n := testing.AllocsPerRun(100, func() { _ = g.Validate(3) }); n != 0 {
		t.Errorf("Validate allocates %v objects per call, want 0", n)
	}
}

func TestGateString(t *testing.T) {
	g := New("rz", []int{3}, 1.5)
	if got, want := g.String(), "rz(1.5) q[3]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	g2 := New("cx", []int{0, 1})
	if got, want := g2.String(), "cx q[0],q[1]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestGateRemap(t *testing.T) {
	g := New("cx", []int{0, 2})
	perm := []int{5, 6, 7}
	r := g.Remap(perm)
	if r.Qubits[0] != 5 || r.Qubits[1] != 7 {
		t.Errorf("Remap got %v", r.Qubits)
	}
	// Original untouched.
	if g.Qubits[0] != 0 || g.Qubits[1] != 2 {
		t.Errorf("Remap mutated original: %v", g.Qubits)
	}
}

func TestBuilderAndCounts(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CX(0, 1).CX(1, 2).RZ(0.3, 2).Swap(0, 2).Measure(2)
	if got := c.TwoQubitCount(); got != 3 {
		t.Errorf("TwoQubitCount = %d, want 3", got)
	}
	if got := c.SingleQubitCount(); got != 2 {
		t.Errorf("SingleQubitCount = %d, want 2", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDepth(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).H(1).H(2) // depth 1 (parallel)
	if got := c.Depth(); got != 1 {
		t.Errorf("depth after parallel layer = %d, want 1", got)
	}
	c.CX(0, 1) // depth 2
	c.CX(1, 2) // depth 3
	if got := c.Depth(); got != 3 {
		t.Errorf("depth = %d, want 3", got)
	}
}

func TestDepthBarrierAddsNoDepth(t *testing.T) {
	c := NewCircuit(2)
	c.H(0).Barrier().H(1)
	// Barrier synchronises: h(1) must come after h(0)'s layer.
	if got := c.Depth(); got != 2 {
		t.Errorf("depth = %d, want 2", got)
	}
}

func TestClone(t *testing.T) {
	c := NewCircuit(2)
	c.H(0).CX(0, 1)
	d := c.Clone()
	d.Gates[0].Qubits[0] = 1
	if c.Gates[0].Qubits[0] != 0 {
		t.Error("Clone shares qubit slices")
	}
}

func TestInteractionCounts(t *testing.T) {
	c := NewCircuit(3)
	c.CX(0, 1).CX(1, 0).CX(1, 2)
	m := c.InteractionCounts()
	if m[[2]int{0, 1}] != 2 {
		t.Errorf("pair (0,1) count = %d, want 2", m[[2]int{0, 1}])
	}
	if m[[2]int{1, 2}] != 1 {
		t.Errorf("pair (1,2) count = %d, want 1", m[[2]int{1, 2}])
	}
}

func TestDecomposeToBasis(t *testing.T) {
	c := NewCircuit(3)
	c.CZ(0, 1).RZZ(0.7, 1, 2).CCX(0, 1, 2)
	d := c.DecomposeToBasis()
	for _, g := range d.Gates {
		if g.IsTwoQubit() && g.Name != "cx" && g.Name != "swap" {
			t.Errorf("non-basis two-qubit gate %q survived decomposition", g.Name)
		}
		if g.Arity() > 2 {
			t.Errorf("gate %q with arity %d survived decomposition", g.Name, g.Arity())
		}
	}
	// CCX uses the standard 6-CNOT Toffoli decomposition.
	cx := 0
	for _, g := range d.Gates {
		if g.Name == "cx" {
			cx++
		}
	}
	// cz:1 + rzz:2 + ccx:6 = 9.
	if cx != 9 {
		t.Errorf("cx count after decomposition = %d, want 9", cx)
	}
}

func TestDAGLinearChain(t *testing.T) {
	c := NewCircuit(2)
	c.H(0).CX(0, 1).H(1)
	d := NewDAG(c)
	if got := len(d.Frontier()); got != 1 {
		t.Fatalf("initial frontier size = %d, want 1", got)
	}
	d.Complete(0)
	if got := d.Frontier(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("frontier after h = %v, want [1]", got)
	}
	d.Complete(1)
	d.Complete(2)
	if !d.Done() {
		t.Error("DAG not done after completing all gates")
	}
}

func TestDAGParallelFrontier(t *testing.T) {
	c := NewCircuit(4)
	c.CX(0, 1).CX(2, 3).CX(1, 2)
	d := NewDAG(c)
	f := d.Frontier()
	if len(f) != 2 || f[0] != 0 || f[1] != 1 {
		t.Fatalf("frontier = %v, want [0 1]", f)
	}
	d.Complete(0)
	if got := d.Frontier(); len(got) != 1 {
		t.Fatalf("frontier = %v, want single gate", got)
	}
	d.Complete(1)
	if got := d.Frontier(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("frontier = %v, want [2]", got)
	}
}

func TestDAGCompleteNonFrontierPanics(t *testing.T) {
	c := NewCircuit(2)
	c.CX(0, 1).CX(0, 1)
	d := NewDAG(c)
	defer func() {
		if recover() == nil {
			t.Error("expected panic completing non-frontier gate")
		}
	}()
	d.Complete(1)
}

func TestDAGLookahead(t *testing.T) {
	c := NewCircuit(4)
	c.CX(0, 1).H(2).CX(2, 3).CX(1, 2)
	d := NewDAG(c)
	la := d.Lookahead(10)
	if len(la) != 3 {
		t.Fatalf("lookahead returned %d gates, want 3", len(la))
	}
	la1 := d.Lookahead(1)
	if len(la1) != 1 {
		t.Fatalf("lookahead(1) returned %d gates", len(la1))
	}
}

// randomCircuit builds a random circuit for property tests.
func randomCircuit(r *rand.Rand, nq, ngates int) *Circuit {
	c := NewCircuit(nq)
	oneQ := []string{"h", "x", "t", "s"}
	for i := 0; i < ngates; i++ {
		if nq >= 2 && r.Intn(2) == 0 {
			a := r.Intn(nq)
			b := r.Intn(nq - 1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		} else {
			c.mustAppend(New(oneQ[r.Intn(len(oneQ))], []int{r.Intn(nq)}))
		}
	}
	return c
}

// Property: completing the DAG frontier-first in any greedy order visits
// every gate exactly once and respects per-wire program order.
func TestDAGTopologicalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nq := 2 + r.Intn(6)
		c := randomCircuit(r, nq, 5+r.Intn(40))
		d := NewDAG(c)
		lastOnWire := make([]int, nq)
		for i := range lastOnWire {
			lastOnWire[i] = -1
		}
		executed := 0
		for !d.Done() {
			f := d.Frontier()
			if len(f) == 0 {
				return false // deadlock: should be impossible
			}
			// Pick a pseudo-random frontier gate.
			id := f[r.Intn(len(f))]
			g := d.Gate(id)
			for _, q := range g.Qubits {
				if lastOnWire[q] > id {
					return false // wire order violated
				}
				lastOnWire[q] = id
			}
			d.Complete(id)
			executed++
		}
		return executed == len(c.Gates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: frontier gates are always pairwise wire-disjoint for 2Q-only
// circuits... not true in general (two frontier gates may share no deps but
// a wire conflict would create a dependency). Verify exactly that: frontier
// gates never share a qubit.
func TestDAGFrontierDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nq := 2 + r.Intn(6)
		c := randomCircuit(r, nq, 5+r.Intn(40))
		d := NewDAG(c)
		for !d.Done() {
			used := map[int]bool{}
			for _, id := range d.Frontier() {
				for _, q := range d.Gate(id).Qubits {
					if used[q] {
						return false
					}
					used[q] = true
				}
			}
			d.Complete(d.Frontier()[0])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeAngle(t *testing.T) {
	if got := NormalizeAngle(5 * math.Pi); math.Abs(got-math.Pi) > 1e-12 {
		t.Errorf("NormalizeAngle(5π) = %g, want π", got)
	}
}
