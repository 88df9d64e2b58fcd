package circuit_test

import (
	"math"
	"testing"

	"ssync/internal/circuit"
	"ssync/internal/qasm"
	"ssync/internal/workloads"
)

// TestDigestSplitsLikeCanonicalQASM pins Digest to the equivalence the
// canonical OpenQASM rendering defines: over every pair of a corpus of
// paper workloads, their reparsed forms and hand-built edge cases, two
// circuits share a digest exactly when qasm.Write renders them the same.
func TestDigestSplitsLikeCanonicalQASM(t *testing.T) {
	var corpus []*circuit.Circuit
	reparses := 0
	add := func(c *circuit.Circuit) {
		t.Helper()
		reparsed, err := qasm.Parse(qasm.Write(c))
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, c, reparsed)
		reparses++
	}
	for _, spec := range workloads.Table2() {
		c, err := workloads.Build(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		add(c)
	}

	cond := func(creg string, width, value int) *circuit.Condition {
		return &circuit.Condition{Creg: creg, Width: width, Value: value}
	}
	conditioned := func(n int, measure bool, c *circuit.Condition) *circuit.Circuit {
		out := circuit.NewCircuit(n)
		out.H(0)
		if measure {
			out.Measure(0)
		}
		if err := out.Append(circuit.Gate{Name: "x", Qubits: []int{1}, Cond: c}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// A measuring circuit declares c[NumQubits], so conditions on a
	// narrower c collapse onto the declared width...
	add(conditioned(3, true, cond("c", 1, 1)))
	add(conditioned(3, true, cond("c", 3, 1)))
	// ...while without a measurement the widths stay distinct.
	add(conditioned(3, false, cond("c", 1, 1)))
	add(conditioned(3, false, cond("c", 2, 1)))
	// A different value or register is a different program.
	add(conditioned(3, true, cond("c", 3, 0)))
	add(conditioned(3, true, cond("flag", 3, 1)))
	// Signed zeros render apart; the circuit's Name never renders.
	add(circuit.NewCircuit(2).RZ(0, 0))
	add(circuit.NewCircuit(2).RZ(math.Copysign(0, -1), 0))
	named := circuit.NewCircuit(2).RZ(0, 0)
	named.Name = "named"
	add(named)
	// Qubit order and register size matter.
	add(circuit.NewCircuit(2).CX(0, 1))
	add(circuit.NewCircuit(2).CX(1, 0))
	add(circuit.NewCircuit(3).CX(0, 1))

	// Every NaN renders as "NaN", which does not reparse, so these two
	// skip the round trip.
	corpus = append(corpus,
		circuit.NewCircuit(2).RZ(math.NaN(), 0),
		circuit.NewCircuit(2).RZ(math.Float64frombits(0x7ff8000000000001), 0))

	texts := make([]string, len(corpus))
	digests := make([][32]byte, len(corpus))
	for i, c := range corpus {
		texts[i], digests[i] = qasm.Write(c), c.Digest()
	}
	equalPairs := 0
	for i := range corpus {
		for j := i + 1; j < len(corpus); j++ {
			sameText, sameDigest := texts[i] == texts[j], digests[i] == digests[j]
			if sameText != sameDigest {
				t.Errorf("corpus %d vs %d: same QASM %v but same digest %v\n%s\n%s",
					i, j, sameText, sameDigest, texts[i], texts[j])
			}
			if sameText {
				equalPairs++
			}
		}
	}
	// Every reparse pair, plus the widened condition, the rename and the
	// NaNs.
	if want := reparses + 3; equalPairs < want {
		t.Errorf("only %d equal pairs, want at least %d: the corpus lost its aliasing cases", equalPairs, want)
	}
}
