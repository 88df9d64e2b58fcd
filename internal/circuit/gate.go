// Package circuit provides the quantum-circuit intermediate representation
// used throughout the S-SYNC compiler: gates, circuits, and the dependency
// DAG (Sec. 3.1 of the paper) whose frontier drives scheduling.
package circuit

import (
	"fmt"
	"math"
	"strings"
)

// Condition is the classical control of an OpenQASM 2.0 `if` statement:
// the gate executes only when the named classical register equals Value.
// Width is the register's declared bit size, kept so the condition
// round-trips through the QASM writer.
type Condition struct {
	Creg  string
	Width int
	Value int
}

// Gate is a single quantum instruction. Name is the canonical lowercase
// OpenQASM-style mnemonic ("h", "rz", "cx", "swap", "measure", "barrier", ...).
// Qubits are logical qubit indices; Params are rotation angles in radians.
//
// Cond, when non-nil, marks the gate classically controlled
// (`if (creg==n) gate;`). The scheduler routes conditioned gates like
// unconditioned ones — transport must be arranged for the worst case in
// which the condition fires — but the peephole optimiser and the
// commutation analysis treat them as opaque, and state-vector
// verification rejects them (classical feedback has no unitary).
type Gate struct {
	Name   string
	Qubits []int
	Params []float64
	Cond   *Condition
}

// Known gate arities, keyed by canonical name. Gates absent from this map are
// rejected by Validate; the QASM front end expands user-defined gates before
// constructing a Circuit.
var gateArity = map[string]int{
	"id": 1, "x": 1, "y": 1, "z": 1, "h": 1,
	"s": 1, "sdg": 1, "t": 1, "tdg": 1,
	"sx": 1, "sxdg": 1,
	"rx": 1, "ry": 1, "rz": 1,
	"u1": 1, "u2": 1, "u3": 1, "u": 1, "p": 1,
	"measure": 1, "reset": 1,
	"cx": 2, "cz": 2, "cy": 2, "ch": 2, "swap": 2,
	"crx": 2, "cry": 2, "crz": 2, "cp": 2, "cu1": 2,
	"rxx": 2, "ryy": 2, "rzz": 2, "ms": 2,
	"ccx": 3, "cswap": 3,
	// barrier has variable arity; handled specially.
}

// paramCount gives the number of angle parameters each parameterised gate
// expects. Gates not listed take zero parameters.
var paramCount = map[string]int{
	"rx": 1, "ry": 1, "rz": 1, "u1": 1, "p": 1,
	"u2": 2, "u3": 3, "u": 3,
	"crx": 1, "cry": 1, "crz": 1, "cp": 1, "cu1": 1,
	"rxx": 1, "ryy": 1, "rzz": 1, "ms": 1,
}

// New constructs a gate.
func New(name string, qubits []int, params ...float64) Gate {
	return Gate{Name: name, Qubits: qubits, Params: params}
}

// Arity returns the number of qubits the gate acts on.
func (g Gate) Arity() int { return len(g.Qubits) }

// IsTwoQubit reports whether the gate entangles exactly two qubits. Barriers
// and measurements are never two-qubit gates even when written across wires.
func (g Gate) IsTwoQubit() bool {
	if g.Name == "barrier" || g.Name == "measure" {
		return false
	}
	return len(g.Qubits) == 2
}

// IsSingleQubit reports whether the gate acts on one qubit (including
// measure/reset, which occupy a single wire).
func (g Gate) IsSingleQubit() bool {
	return len(g.Qubits) == 1 && g.Name != "barrier"
}

// Validate checks arity and parameter counts against the known-gate
// tables, plus classical-control well-formedness when Cond is set.
func (g Gate) Validate(numQubits int) error {
	if c := g.Cond; c != nil {
		// Mirror the QASM parser's rules exactly, so every condition that
		// Append accepts also survives the Write/Parse round trip.
		if g.Name == "barrier" {
			return fmt.Errorf("circuit: a barrier cannot be classically controlled")
		}
		if c.Creg == "" {
			return fmt.Errorf("circuit: conditioned gate %q names no classical register", g.Name)
		}
		if c.Width <= 0 {
			return fmt.Errorf("circuit: condition on %q has non-positive register width %d", c.Creg, c.Width)
		}
		if c.Value < 0 {
			return fmt.Errorf("circuit: condition %s==%d compares against a negative value", c.Creg, c.Value)
		}
		if c.Width < 63 && c.Value >= 1<<uint(c.Width) {
			return fmt.Errorf("circuit: condition value %d does not fit creg %s[%d]", c.Value, c.Creg, c.Width)
		}
	}
	if g.Name == "barrier" {
		for _, q := range g.Qubits {
			if q < 0 || q >= numQubits {
				return fmt.Errorf("circuit: barrier qubit %d out of range [0,%d)", q, numQubits)
			}
		}
		return nil
	}
	want, ok := gateArity[g.Name]
	if !ok {
		return fmt.Errorf("circuit: unknown gate %q", g.Name)
	}
	if len(g.Qubits) != want {
		return fmt.Errorf("circuit: gate %q wants %d qubits, got %d", g.Name, want, len(g.Qubits))
	}
	if np := paramCount[g.Name]; len(g.Params) != np {
		return fmt.Errorf("circuit: gate %q wants %d params, got %d", g.Name, np, len(g.Params))
	}
	// Non-barrier gates touch at most three qubits, so a pairwise scan
	// finds repeats without allocating.
	for i, q := range g.Qubits {
		if q < 0 || q >= numQubits {
			return fmt.Errorf("circuit: gate %q qubit %d out of range [0,%d)", g.Name, q, numQubits)
		}
		for _, prev := range g.Qubits[:i] {
			if prev == q {
				return fmt.Errorf("circuit: gate %q repeats qubit %d", g.Name, q)
			}
		}
	}
	return nil
}

// String renders the gate in QASM-like syntax, e.g. "rz(1.5708) q[3]".
func (g Gate) String() string {
	var b strings.Builder
	if g.Cond != nil {
		fmt.Fprintf(&b, "if(%s==%d) ", g.Cond.Creg, g.Cond.Value)
	}
	b.WriteString(g.Name)
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	return b.String()
}

// Remap returns a copy of the gate with qubit indices translated through perm
// (perm[old] = new). It is used when applying an initial mapping or when
// rewriting a compiled schedule back to logical indices.
func (g Gate) Remap(perm []int) Gate {
	qs := make([]int, len(g.Qubits))
	for i, q := range g.Qubits {
		qs[i] = perm[q]
	}
	out := Gate{Name: g.Name, Qubits: qs, Params: append([]float64(nil), g.Params...)}
	if g.Cond != nil {
		cond := *g.Cond
		out.Cond = &cond
	}
	return out
}

// NormalizeAngle folds an angle into (-2π, 2π) to keep QASM output tidy.
func NormalizeAngle(a float64) float64 {
	const twoPi = 2 * math.Pi
	return math.Mod(a, twoPi)
}
