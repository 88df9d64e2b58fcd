package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"ssync/internal/pass"
	"ssync/internal/store"
)

// Key content-addresses one compilation request. Two requests share a key
// exactly when their circuit digest (circuit.Digest), device layout, and
// execution plan — the full resolved pass pipeline with per-pass options,
// or the opaque compiler name with its configuration — coincide, so a key
// hit is a proof the cached schedule answers the new request. Built-in
// compiler names key as their canned pipelines, so Request.Compiler
// "ssync" and the equivalent explicit Request.Pipeline share one key.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyVersion tags the hash layout; bump it whenever the serialisation
// below changes so stale external key material can never alias.
// v5: the circuit enters as its binary digest (circuit.Digest) instead
// of its canonical OpenQASM text; v4 introduced the per-granularity
// configuration hashing (pass.ConfigUse) and the stage-prefix chain
// (prefixKeys) that share this serialisation.
const keyVersion = "ssync-req-v5"

// stageKeyVersion tags the prefix-key layout. Prefix keys live in their
// own hash domain: a stage key can never alias a request key, so stage
// snapshots and finished results may share one disk tier without type
// confusion.
const stageKeyVersion = "ssync-stage-v1"

// RequestKey computes the content address of a request. The circuit
// enters via its digest (circuit.Digest), which coincides exactly when
// the OpenQASM renderings do and so is stable across write/parse round
// trips; the topology enters via its name plus full trap/segment layout;
// the execution plan enters via the resolved pipeline — every pass name
// and canonical options signature, stage by stage — or, for opaque
// registered compilers, the registry name. The S-SYNC/annealer configurations enter via their
// Go-syntax renderings (deterministic field order), at the granularity
// the pipeline's passes declare they read them (pass.ConfigUse).
func RequestKey(req Request) (Key, error) {
	x, err := resolveExec(req)
	if err != nil {
		return Key{}, err
	}
	if req.Circuit == nil || req.Topo == nil {
		return Key{}, fmt.Errorf("engine: cannot key a request without circuit and topology")
	}
	return execKey(req, x, req.Circuit.Digest()), nil
}

// hashRequestBase writes the request's circuit and topology — the part
// of the content address every key form (request and stage prefix)
// shares — into h. digest is the circuit's circuit.Digest: one request
// needs the base for its request key plus every stage-prefix key, so
// callers digest the circuit once and share it.
func hashRequestBase(h hash.Hash, req Request, digest [sha256.Size]byte) {
	io.WriteString(h, "\x00circuit\x00")
	h.Write(digest[:])
	io.WriteString(h, "\x00topo\x00")
	// Length-prefix the free-form name so a crafted name can never alias
	// the trap/segment serialization that follows.
	fmt.Fprintf(h, "%d\x00%s", len(req.Topo.Name), req.Topo.Name)
	for _, tr := range req.Topo.Traps {
		fmt.Fprintf(h, "|t%d:%d", tr.ID, tr.Capacity)
	}
	for _, s := range req.Topo.Segments {
		fmt.Fprintf(h, "|s%d-%d:%d,%d:j%d:h%d", s.A, s.B, int(s.EndA), int(s.EndB), s.Junctions, s.Hops)
	}
}

// hashStages writes a pipeline (or pipeline prefix) into h: each pass
// name plus its canonical options signature (pass.Signature), each
// length-prefixed so crafted names cannot alias stage boundaries.
func hashStages(h hash.Hash, passes []pass.Pass) {
	io.WriteString(h, "\x00pipeline\x00")
	for _, p := range passes {
		name, sig := p.Name(), pass.Signature(p)
		fmt.Fprintf(h, "%d\x00%s%d\x00%s", len(name), name, len(sig), sig)
	}
}

// hashConfigs writes the resolved configurations into h at the
// granularity use declares: the full scheduler config when some stage
// reads scheduler knobs, the mapping sub-config alone when only
// placement stages read it, a fixed token otherwise — so a
// decompose→place prefix keeps one key across requests that vary
// scheduler knobs (ablation grids), and a baseline pipeline is not
// fragmented by an irrelevant Config or Anneal on the request.
func hashConfigs(h hash.Hash, req Request, use pass.ConfigUse) {
	io.WriteString(h, "\x00config\x00")
	switch {
	case use.Config:
		fmt.Fprintf(h, "full:%#v", ssyncConfig(req))
	case use.Mapping:
		fmt.Fprintf(h, "mapping:%#v", ssyncConfig(req).Mapping)
	default:
		io.WriteString(h, "none")
	}
	io.WriteString(h, "\x00anneal\x00")
	if use.Anneal {
		fmt.Fprintf(h, "%#v", annealConfig(req))
	} else {
		io.WriteString(h, "none")
	}
}

// execKey hashes a request against its already-resolved execution plan;
// Engine.Do uses it to key exactly what it will run without resolving
// twice. The request must carry a circuit and a topology; digest is
// req.Circuit's circuit.Digest.
func execKey(req Request, x exec, digest [sha256.Size]byte) Key {
	var k Key
	h := sha256.New()
	io.WriteString(h, keyVersion)
	hashRequestBase(h, req, digest)
	if x.passes != nil {
		hashStages(h, x.passes)
		hashConfigs(h, req, pass.PipelineUse(x.passes))
	} else {
		// Opaque registered compilers hash by registry name — distinct
		// entries can never collide — plus the resolved configurations
		// they may read from the request.
		io.WriteString(h, "\x00compiler\x00")
		fmt.Fprintf(h, "%d\x00%s", len(x.compiler), x.compiler)
		io.WriteString(h, "\x00config\x00")
		fmt.Fprintf(h, "%#v", ssyncConfig(req))
		io.WriteString(h, "\x00anneal\x00")
		io.WriteString(h, opaqueAnnealSignature(req))
	}
	h.Sum(k[:0])
	return k
}

// prefixKeys computes the stage-prefix key chain of a pipeline
// execution: element i content-addresses the pipeline State at the
// boundary after stages 0..i — hash of the input circuit, the topology,
// the stage specs 0..i, and the configurations those stages read
// (cumulative pass.ConfigUse) — so any pipeline sharing that prefix
// (e.g. the same decompose→place under a different router) derives the
// same key and can resume from the cached snapshot. The chain covers
// boundaries 0..len-2; the final boundary is the finished result, which
// execKey addresses. Nil for opaque compilers and single-stage
// pipelines. digest is req.Circuit's circuit.Digest.
func prefixKeys(req Request, x exec, digest [sha256.Size]byte) []store.Key {
	if x.passes == nil || len(x.passes) < 2 || req.Circuit == nil || req.Topo == nil {
		return nil
	}
	keys := make([]store.Key, len(x.passes)-1)
	for i := range keys {
		h := sha256.New()
		io.WriteString(h, stageKeyVersion)
		hashRequestBase(h, req, digest)
		hashStages(h, x.passes[:i+1])
		hashConfigs(h, req, pass.PipelineUse(x.passes[:i+1]))
		h.Sum(keys[i][:0])
	}
	return keys
}

// opaqueAnnealSignature renders the resolved annealer configuration —
// seed included — for opaque-compiler requests that set Anneal explicitly
// (a custom compiler may read it). Everything else hashes a fixed token,
// so plain custom-compiler requests are unaffected by annealer defaults.
func opaqueAnnealSignature(req Request) string {
	if req.Anneal != nil {
		return fmt.Sprintf("%#v", annealConfig(req))
	}
	return "none"
}
