package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"ssync/internal/engine"
)

func TestCompileV2Endpoint(t *testing.T) {
	ts := testServer(t)
	var got compileResponseV2
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Qubits != 12 || got.Compiler != "ssync" || got.Topology != "G-2x2" {
		t.Errorf("unexpected response: %+v", got)
	}
	if got.Key == "" {
		t.Error("missing content-address key")
	}

	// The v2 envelope: the class the request ran in, the executed
	// pipeline with its per-pass timings, and the correlation IDs.
	if got.Priority != "interactive" {
		t.Errorf("priority = %q, want interactive", got.Priority)
	}
	if len(got.Pipeline) == 0 || len(got.Passes) != len(got.Pipeline) {
		t.Errorf("pipeline %v with %d pass timings", got.Pipeline, len(got.Passes))
	}
	if got.RequestID == "" || got.TraceID == "" {
		t.Errorf("request_id=%q trace_id=%q, want both set", got.RequestID, got.TraceID)
	}
}

func TestCompileV2AnnealedCompiler(t *testing.T) {
	ts := testServer(t)
	seed := int64(7)
	var got compileResponseV2
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
			Compiler: "ssync-annealed", AnnealSeed: &seed}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Compiler != "ssync-annealed" {
		t.Errorf("compiler = %q, want ssync-annealed", got.Compiler)
	}

	// A different seed is a different request: distinct cache key.
	other := int64(8)
	var reseeded compileResponseV2
	postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
			Compiler: "ssync-annealed", AnnealSeed: &other}, &reseeded)
	if reseeded.Key == got.Key {
		t.Error("anneal_seed does not reach the cache key")
	}
	if reseeded.CacheHit {
		t.Error("differently-seeded request reported a cache hit")
	}

	// The same seed is the same request: cache hit.
	var again compileResponseV2
	postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
			Compiler: "ssync-annealed", AnnealSeed: &seed}, &again)
	if !again.CacheHit {
		t.Error("identically-seeded request missed the cache")
	}
}

func TestCompileV2Validation(t *testing.T) {
	ts := testServer(t)
	seed := int64(1)
	cases := []compileRequestV2{
		{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: "qiskit"},                 // unregistered
		{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: "murali", Mapping: "sta"}, // mapping on baseline
		{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, AnnealSeed: &seed},                  // seed on plain ssync
		{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Portfolio: true, AnnealSeed: &seed}, // seed on portfolio
	}
	for i, req := range cases {
		resp := postJSON(t, ts.URL+"/v2/compile", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	// The unknown-compiler error names the registered set.
	raw := struct {
		Error string `json:"error"`
	}{}
	postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: "qiskit"}, &raw)
	if raw.Error == "" {
		t.Fatal("unknown compiler produced no error body")
	}
}

func TestBatchV2Endpoint(t *testing.T) {
	ts := testServer(t)
	req := batchRequestV2{Requests: []compileRequestV2{
		{Label: "a", Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8},
		{Label: "b", Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Compiler: "ssync-annealed"},
		{Label: "broken", Topology: "G-2x2"},
	}}
	var got batchResponseV2
	resp := postJSON(t, ts.URL+"/v2/batch", req, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Results) != 3 || got.Errors != 1 {
		t.Fatalf("results=%d errors=%d, want 3/1", len(got.Results), got.Errors)
	}
	if got.Results[1].Compiler != "ssync-annealed" {
		t.Errorf("entry b compiled with %q", got.Results[1].Compiler)
	}
	if got.Results[2].Error == "" {
		t.Error("malformed entry did not report an error")
	}
}

func TestCompilersV2Endpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v2/compilers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got compilersResponseV2
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range engine.Compilers() {
		want[name] = true
	}
	for _, name := range []string{"murali", "dai", "ssync", "ssync-annealed"} {
		if !want[name] {
			t.Fatalf("engine registry lacks %q", name)
		}
	}
	if len(got.Compilers) != len(engine.Compilers()) {
		t.Errorf("endpoint lists %d compilers, registry has %d", len(got.Compilers), len(engine.Compilers()))
	}
}

func TestStatsV2Endpoint(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, nil)

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponseV2
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsCompiled != 1 {
		t.Errorf("jobs_compiled = %d, want 1", st.JobsCompiled)
	}
	if len(st.Compilers) == 0 {
		t.Error("v2 stats carries no compiler listing")
	}
}
