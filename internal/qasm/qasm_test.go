package qasm

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"ssync/internal/circuit"
)

func TestParseBasic(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
measure q[0] -> c[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 {
		t.Fatalf("NumQubits = %d, want 3", c.NumQubits)
	}
	if len(c.Gates) != 4 {
		t.Fatalf("gate count = %d, want 4", len(c.Gates))
	}
	if c.Gates[2].Name != "rz" || math.Abs(c.Gates[2].Params[0]-math.Pi/2) > 1e-12 {
		t.Errorf("rz gate parsed wrongly: %+v", c.Gates[2])
	}
}

func TestParseBroadcast(t *testing.T) {
	src := `qreg q[4]; h q;`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 4 {
		t.Fatalf("broadcast h q over q[4] produced %d gates, want 4", len(c.Gates))
	}
	src2 := `qreg a[3]; qreg b[3]; cx a,b;`
	c2, err := Parse(src2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Gates) != 3 {
		t.Fatalf("broadcast cx a,b produced %d gates, want 3", len(c2.Gates))
	}
	if q := c2.Gates[2].Qubits; q[0] != 2 || q[1] != 5 {
		t.Errorf("third broadcast cx on %v, want [2 5]", q)
	}
}

func TestParseBroadcastScalarMix(t *testing.T) {
	src := `qreg a[1]; qreg b[3]; cx a[0],b;`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 3 {
		t.Fatalf("scalar-register broadcast produced %d gates, want 3", len(c.Gates))
	}
	for i, g := range c.Gates {
		if g.Qubits[0] != 0 || g.Qubits[1] != 1+i {
			t.Errorf("gate %d on %v", i, g.Qubits)
		}
	}
}

func TestParseGateDefinition(t *testing.T) {
	src := `
qreg q[2];
gate foo(theta) a,b {
  h a;
  cx a,b;
  rz(theta/2) b;
}
foo(pi) q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 3 {
		t.Fatalf("expanded gate count = %d, want 3", len(c.Gates))
	}
	if c.Gates[2].Name != "rz" || math.Abs(c.Gates[2].Params[0]-math.Pi/2) > 1e-12 {
		t.Errorf("parameter substitution failed: %+v", c.Gates[2])
	}
}

func TestParseNestedGateDefinition(t *testing.T) {
	src := `
qreg q[2];
gate inner a { h a; }
gate outer a,b { inner a; cx a,b; inner b; }
outer q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h", "cx", "h"}
	if len(c.Gates) != len(want) {
		t.Fatalf("gate count = %d, want %d", len(c.Gates), len(want))
	}
	for i, g := range c.Gates {
		if g.Name != want[i] {
			t.Errorf("gate %d = %q, want %q", i, g.Name, want[i])
		}
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"pi", math.Pi},
		{"2*pi", 2 * math.Pi},
		{"pi/4", math.Pi / 4},
		{"-pi/2", -math.Pi / 2},
		{"1+2*3", 7},
		{"(1+2)*3", 9},
		{"2^3", 8},
		{"sin(pi/2)", 1},
		{"cos(0)", 1},
		{"sqrt(4)", 2},
		{"1.5e1", 15},
	}
	for _, tc := range cases {
		src := "qreg q[1]; rz(" + tc.expr + ") q[0];"
		c, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		got := c.Gates[0].Params[0]
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("expr %q = %g, want %g", tc.expr, got, tc.want)
		}
	}
}

func TestParseUAndCXBuiltins(t *testing.T) {
	src := `qreg q[2]; U(0.1,0.2,0.3) q[0]; CX q[0],q[1];`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Name != "u3" || len(c.Gates[0].Params) != 3 {
		t.Errorf("U builtin parsed as %+v", c.Gates[0])
	}
	if c.Gates[1].Name != "cx" {
		t.Errorf("CX builtin parsed as %+v", c.Gates[1])
	}
}

func TestParseComments(t *testing.T) {
	src := `
// leading comment
qreg q[1]; /* block
comment */ h q[0]; // trailing
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 {
		t.Fatalf("gate count = %d, want 1", len(c.Gates))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"undeclared qreg", `qreg q[1]; h r[0];`},
		{"out of range", `qreg q[2]; h q[5];`},
		{"unknown gate", `qreg q[1]; zappo q[0];`},
		{"opaque", `qreg q[1]; opaque foo a;`},
		{"if undeclared creg", `qreg q[1]; if (c==1) h q[0];`},
		{"if oversized value", `qreg q[1]; creg c[2]; if (c==4) h q[0];`},
		{"if missing ==", `qreg q[1]; creg c[1]; if (c=1) h q[0];`},
		{"if on barrier", `qreg q[1]; creg c[1]; if (c==1) barrier q;`},
		{"if on qreg", `qreg q[1]; creg c[1]; if (c==1) qreg r[1];`},
		{"bad broadcast", `qreg a[2]; qreg b[3]; cx a,b;`},
		{"missing semicolon", `qreg q[1] h q[0];`},
		{"duplicate qreg", `qreg q[1]; qreg q[2]; h q[0];`},
		{"no qubits", `creg c[2]; measure q -> c;`},
		{"unterminated body", `qreg q[1]; gate foo a { h a;`},
		{"division by zero", `qreg q[1]; rz(1/0) q[0];`},
		{"measure undeclared creg", `qreg q[1]; measure q[0] -> c[0];`},
		{"truncated header", `OPENQASM`},
		{"truncated version", `OPENQASM 2.0`},
		{"truncated statement", `qreg q[1]; h`},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.src); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c := circuit.NewCircuit(4)
	c.H(0).CX(0, 1).RZ(0.123456789, 2).Swap(2, 3).CZ(1, 3).Barrier().Measure(0)
	out := Write(c)
	c2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, out)
	}
	if len(c2.Gates) != len(c.Gates) {
		t.Fatalf("round trip gate count %d != %d", len(c2.Gates), len(c.Gates))
	}
	for i := range c.Gates {
		a, b := c.Gates[i], c2.Gates[i]
		if a.Name != b.Name {
			t.Errorf("gate %d: %q != %q", i, a.Name, b.Name)
		}
		for j := range a.Qubits {
			if a.Qubits[j] != b.Qubits[j] {
				t.Errorf("gate %d qubit %d differs", i, j)
			}
		}
		for j := range a.Params {
			if math.Abs(a.Params[j]-b.Params[j]) > 1e-15 {
				t.Errorf("gate %d param %d: %g != %g", i, j, a.Params[j], b.Params[j])
			}
		}
	}
}

// Property: Write -> Parse is the identity on random basis circuits.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nq := 2 + r.Intn(8)
		c := circuit.NewCircuit(nq)
		names1 := []string{"h", "x", "s", "t", "tdg"}
		for i := 0; i < 5+r.Intn(30); i++ {
			switch r.Intn(4) {
			case 0:
				c.Append(circuit.New(names1[r.Intn(len(names1))], []int{r.Intn(nq)}))
			case 1:
				c.RZ(r.Float64()*2*math.Pi-math.Pi, r.Intn(nq))
			default:
				a := r.Intn(nq)
				b := r.Intn(nq - 1)
				if b >= a {
					b++
				}
				c.CX(a, b)
			}
		}
		c2, err := Parse(Write(c))
		if err != nil {
			return false
		}
		if len(c2.Gates) != len(c.Gates) {
			return false
		}
		for i := range c.Gates {
			if c.Gates[i].String() != c2.Gates[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteHasHeader(t *testing.T) {
	c := circuit.NewCircuit(1)
	c.H(0)
	out := Write(c)
	if !strings.HasPrefix(out, "OPENQASM 2.0;") {
		t.Errorf("missing header: %q", out)
	}
	if strings.Contains(out, "creg") {
		t.Error("creg emitted for circuit without measurements")
	}
}

func TestParseTestdataCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.qasm")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Parse(string(src))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: invalid circuit: %v", f, err)
		}
		if len(c.Gates) == 0 {
			t.Errorf("%s: no gates parsed", f)
		}
	}
}

// The parser must reject (never panic on) arbitrary mangled inputs.
func TestParseNeverPanics(t *testing.T) {
	base := `OPENQASM 2.0; qreg q[3]; h q[0]; cx q[0],q[1]; rz(pi/2) q[2];`
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		b := []byte(base)
		// Random mutations: deletions, swaps, injected bytes.
		for k := 0; k < 1+r.Intn(6); k++ {
			switch r.Intn(3) {
			case 0:
				i := r.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			case 1:
				i, j := r.Intn(len(b)), r.Intn(len(b))
				b[i], b[j] = b[j], b[i]
			case 2:
				i := r.Intn(len(b))
				b = append(b[:i], append([]byte{byte(r.Intn(128))}, b[i:]...)...)
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on input %q: %v", b, p)
				}
			}()
			_, _ = Parse(string(b)) // error or success, never panic
		}()
	}
}
