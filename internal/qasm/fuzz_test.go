package qasm

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var linePosition = regexp.MustCompile(`\bline [0-9]+\b`)

// FuzzParse feeds arbitrary source to the parser: it must never panic,
// every error must carry its line, and every accepted program must reach
// the writer's fixpoint with a digest that survives the reparse.
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 20s ./internal/qasm/
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("testdata/*.qasm")
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata corpus found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// A condition on a c narrower than the measured register, which the
	// writer widens.
	f.Add("qreg q[2];\ncreg c[1];\nif (c==1) x q[1];\nmeasure q[0] -> c[0];")
	// The TestParseErrors inputs.
	for _, src := range []string{
		`qreg q[1]; h r[0];`,
		`qreg q[2]; h q[5];`,
		`qreg q[1]; zappo q[0];`,
		`qreg q[1]; opaque foo a;`,
		`qreg q[1]; if (c==1) h q[0];`,
		`qreg q[1]; creg c[2]; if (c==4) h q[0];`,
		`qreg q[1]; creg c[1]; if (c=1) h q[0];`,
		`qreg q[1]; creg c[1]; if (c==1) barrier q;`,
		`qreg q[1]; creg c[1]; if (c==1) qreg r[1];`,
		`qreg a[2]; qreg b[3]; cx a,b;`,
		`qreg q[1] h q[0];`,
		`qreg q[1]; qreg q[2]; h q[0];`,
		`creg c[2]; measure q -> c;`,
		`qreg q[1]; gate foo a { h a;`,
		`qreg q[1]; rz(1/0) q[0];`,
		`qreg q[1]; measure q[0] -> c[0];`,
		`OPENQASM`,
		`OPENQASM 2.0`,
		`qreg q[1]; h`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			if !linePosition.MatchString(err.Error()) {
				t.Fatalf("error %q carries no line position", err)
			}
			return
		}
		text := Write(c)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("written program does not reparse: %v\n%s", err, text)
		}
		if got := Write(again); got != text {
			t.Fatalf("Write is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, got)
		}
		if c.Digest() != again.Digest() {
			t.Fatalf("digest changed across the reparse of\n%s", text)
		}
	})
}
