package main

import (
	"bytes"
	"net/http"

	"ssync/internal/cluster"
	"ssync/internal/engine"
)

// routerRequestKey is the cluster router's KeyFunc: it computes the same
// content address the replicas cache under (engine.RequestKey, over the
// circuit's digest), from the wire request
// alone, so placement agrees with the replica-side cache and identical
// circuits land on the shard that already holds (or is already
// compiling) their result. Anything it cannot key — batches, GETs,
// portfolio races, malformed bodies — returns ok=false and routes by
// body hash instead: affinity still holds for repeated identical
// payloads, it just stops being schema-aware.
func routerRequestKey(method, path string, body []byte) (cluster.Key, bool) {
	// Batches hash as one body: their entries fan out on whichever
	// replica receives them, and splitting a batch across shards would
	// trade its single response envelope for router-side re-assembly.
	if method != http.MethodPost || path != "/v2/compile" {
		return cluster.Key{}, false
	}
	var wire compileRequestV2
	if decodeStrict(bytes.NewReader(body), &wire) != nil {
		return cluster.Key{}, false
	}
	if wire.Portfolio {
		// A portfolio race is several compilations; there is no single
		// request key. Body-hash affinity still pins repeats to one shard.
		return cluster.Key{}, false
	}
	name, cfg, ann, err := resolveStrategy(wire)
	if err != nil {
		return cluster.Key{}, false
	}
	c, err := buildCircuit(wire)
	if err != nil {
		return cluster.Key{}, false
	}
	topo, err := buildTopology(wire)
	if err != nil {
		return cluster.Key{}, false
	}
	k, err := engine.RequestKey(engine.Request{
		Circuit: c, Topo: topo,
		Compiler: name, Pipeline: pipelineSpecs(wire.Pipeline),
		Config: cfg, Anneal: ann,
	})
	if err != nil {
		return cluster.Key{}, false
	}
	return cluster.Key(k), true
}
