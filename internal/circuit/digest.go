package circuit

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Digest returns a SHA-256 content address of the circuit: NumQubits,
// then per gate its length-prefixed name, qubits, parameters (as IEEE-754
// bits, every NaN folded to one pattern) and classical condition. Name is
// not hashed.
//
// A condition hashes its register's declared width rather than the
// gate's own Cond.Width: the widest Cond.Width seen on that register,
// with "c" widened to NumQubits when the circuit measures — the widths
// the OpenQASM writer declares. Two circuits therefore share a digest
// exactly when their OpenQASM renderings coincide, and the digest is
// stable across a write/parse round trip.
//
// The encoding streams through one reusable buffer, so hashing costs no
// allocation per gate.
func (c *Circuit) Digest() [sha256.Size]byte {
	widths := declaredWidths(c)
	h := sha256.New()
	buf := make([]byte, 0, 512)
	buf = binary.AppendUvarint(buf, uint64(c.NumQubits))
	for i := range c.Gates {
		g := &c.Gates[i]
		buf = appendString(buf, g.Name)
		buf = binary.AppendUvarint(buf, uint64(len(g.Qubits)))
		for _, q := range g.Qubits {
			buf = binary.AppendVarint(buf, int64(q))
		}
		buf = binary.AppendUvarint(buf, uint64(len(g.Params)))
		for _, p := range g.Params {
			bits := math.Float64bits(p)
			if p != p {
				bits = math.Float64bits(math.NaN())
			}
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		}
		if cond := g.Cond; cond == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = appendString(buf, cond.Creg)
			buf = binary.AppendVarint(buf, int64(cond.Value))
			buf = binary.AppendVarint(buf, int64(widths[cond.Creg]))
		}
		if len(buf) >= 256 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// declaredWidths maps each register a condition reads to the width the
// OpenQASM writer declares it with; nil for an unconditioned circuit.
func declaredWidths(c *Circuit) map[string]int {
	var widths map[string]int
	measures := false
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Name == "measure" {
			measures = true
		}
		if g.Cond != nil {
			if widths == nil {
				widths = map[string]int{}
			}
			widths[g.Cond.Creg] = max(widths[g.Cond.Creg], g.Cond.Width)
		}
	}
	if _, ok := widths["c"]; ok && measures {
		// Measurements write the flat register c[NumQubits].
		widths["c"] = max(widths["c"], c.NumQubits)
	}
	return widths
}
