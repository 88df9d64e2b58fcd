package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssync/internal/engine"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := newServer(engine.New(engine.Options{Workers: 4}), 4, time.Minute)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

func TestCompileEndpoint(t *testing.T) {
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
	if got.SuccessRate <= 0 || got.SuccessRate > 1 {
		t.Errorf("success rate %v out of range", got.SuccessRate)
	}
	if got.Key == "" {
		t.Error("missing content-address key")
	}
	if got.CacheHit {
		t.Error("first request reported a cache hit")
	}

	// The identical request must come back from the cache.
	var again compileResponseV2
	postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8}, &again)
	if !again.CacheHit {
		t.Error("repeat request missed the cache")
	}
	if again.Shuttles != got.Shuttles || again.Swaps != got.Swaps || again.Key != got.Key {
		t.Error("cached response differs from the original")
	}
}

func TestCompileInlineQASM(t *testing.T) {
	ts := testServer(t)
	src := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
	var got compileResponseV2
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{QASM: src, Topology: "L-2", Capacity: 4, Compiler: "murali"}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Qubits != 3 || got.Compiler != "murali" {
		t.Errorf("unexpected response: %+v", got)
	}
}

func TestCompileRejectsBadRequests(t *testing.T) {
	ts := testServer(t)
	cases := []compileRequestV2{
		{Topology: "G-2x2"}, // no circuit
		{Benchmark: "QFT_12", QASM: "x", Topology: "G-2x2"},          // both
		{Benchmark: "QFT_12"},                                        // no topology
		{Benchmark: "QFT_12", Topology: "Z-9"},                       // unknown device
		{Benchmark: "QFT_12", Topology: "G-2x2", Compiler: "qiskit"}, // unknown compiler (cap default)
		{Benchmark: "QFT_12", Topology: "G-2x2", Mapping: "bogus"},   // unknown mapping
	}
	for i, req := range cases {
		resp := postJSON(t, ts.URL+"/v2/compile", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (request validation)", i, resp.StatusCode)
		}
	}

	// Hostile topology parameters must come back as 400s, not reach the
	// panicking device constructors (negative capacity / dimensions).
	hostile := []compileRequestV2{
		{Benchmark: "QFT_12", Topology: "L-6", Capacity: -1},
		{Benchmark: "QFT_12", Topology: "G--1x2"},
		{Benchmark: "QFT_12", Topology: "S-0", Capacity: 8},
		{Benchmark: "QFT_-5", Topology: "L-6"},                      // panicking generator size
		{Benchmark: "QFT_30000", Topology: "L-6"},                   // DoS-scale generator size
		{Benchmark: "QFT_30000x", Topology: "L-6"},                  // same, with Atoi-defeating suffix
		{Benchmark: "BV_12", Topology: "L-50000"},                   // DoS-scale trap count
		{Benchmark: "BV_12", Topology: "G-99999x99999"},             // dimension-product overflow
		{Benchmark: "BV_12", Topology: "L-6", Capacity: 2000000000}, // DoS-scale capacity
	}
	for i, req := range hostile {
		resp := postJSON(t, ts.URL+"/v2/compile", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("hostile case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts.URL+"/v2/stats", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v2/stats: status %d, want 405", resp.StatusCode)
	}
}

// TestDecodeRejectsTrailingData pins that a request body is exactly one
// JSON document: anything but whitespace after it is a 400. The cluster
// router must refuse to key every body the replica rejects, so router
// and replica agree on which bodies are valid.
func TestDecodeRejectsTrailingData(t *testing.T) {
	ts := testServer(t)
	compile := `{"benchmark":"BV_4","topology":"G-2x2"}`
	batch := `{"requests":[{"benchmark":"BV_4","topology":"G-2x2"}]}`
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v2/compile", compile, http.StatusOK},
		{"/v2/compile", compile + " \n\t", http.StatusOK},
		{"/v2/compile", compile + `{"benchmark":"QFT_64"}`, http.StatusBadRequest},
		{"/v2/compile", compile + "{", http.StatusBadRequest},
		{"/v2/compile", compile + "}", http.StatusBadRequest},
		{"/v2/compile", compile + " null", http.StatusBadRequest},
		{"/v2/compile", compile + "x", http.StatusBadRequest},
		{"/v2/compile", `{"benchmark":"BV_4","topology":"G-2x2","bogus":1}`, http.StatusBadRequest},
		{"/v2/batch", batch, http.StatusOK},
		{"/v2/batch", batch + "\n", http.StatusOK},
		{"/v2/batch", batch + batch, http.StatusBadRequest},
		{"/v2/batch", batch + "]", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %q: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
		_, keyed := routerRequestKey(http.MethodPost, tc.path, []byte(tc.body))
		if keyed && tc.want != http.StatusOK {
			t.Errorf("router keyed %q, which the replica rejects", tc.body)
		}
	}
}

// TestV1RoutesAreGone pins the removal of the /v1 adapter: its paths
// are unknown routes now, not aliases of /v2.
func TestV1RoutesAreGone(t *testing.T) {
	ts := testServer(t)
	body := compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8}
	for _, path := range []string{"/v1/compile", "/v1/batch"} {
		if resp := postJSON(t, ts.URL+path, body, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/stats: status %d, want 404", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := testServer(t)
	req := batchRequestV2{Requests: []compileRequestV2{
		{Label: "a", Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8},
		{Label: "b", Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Compiler: "dai"},
		{Label: "broken", Topology: "G-2x2"},
		{Label: "c", Benchmark: "Adder_4", Topology: "S-4", Capacity: 8, Mapping: "sta"},
	}}
	var got batchResponseV2
	resp := postJSON(t, ts.URL+"/v2/batch", req, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Results) != 4 || got.Errors != 1 {
		t.Fatalf("results=%d errors=%d, want 4/1", len(got.Results), got.Errors)
	}
	for i, label := range []string{"a", "b", "broken", "c"} {
		if got.Results[i].Label != label {
			t.Errorf("result %d has label %q, want %q (ordering broken)", i, got.Results[i].Label, label)
		}
	}
	if got.Results[2].Error == "" {
		t.Error("malformed entry did not report an error")
	}
	for _, i := range []int{0, 1, 3} {
		if got.Results[i].Error != "" {
			t.Errorf("entry %q failed: %s", got.Results[i].Label, got.Results[i].Error)
		}
	}
}

func TestTimeoutStatusIs504(t *testing.T) {
	ts := testServer(t)
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_64", Topology: "G-3x3", TimeoutMs: 1}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timed-out compile: status %d, want 504", resp.StatusCode)
	}
}

func TestBatchLimits(t *testing.T) {
	ts := testServer(t)
	// Entry-count limit, and its lower bound.
	big := batchRequestV2{Requests: make([]compileRequestV2, maxBatchJobs+1)}
	for i := range big.Requests {
		big.Requests[i] = compileRequestV2{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}
	}
	if resp := postJSON(t, ts.URL+"/v2/batch", big, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v2/batch", batchRequestV2{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	// Aggregate-size budget: each entry is individually legal.
	var heavy batchRequestV2
	for i := 0; i < maxBatchSizeBudget/maxBenchmarkSize+1; i++ {
		heavy.Requests = append(heavy.Requests, compileRequestV2{
			Benchmark: fmt.Sprintf("QFT_%d", maxBenchmarkSize), Topology: "L-6",
		})
	}
	if resp := postJSON(t, ts.URL+"/v2/batch", heavy, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-budget batch: status %d, want 400", resp.StatusCode)
	}
}

func TestPortfolioStatusCodes(t *testing.T) {
	ts := testServer(t)
	// Well-formed but uncompilable (circuit larger than the device) must
	// be 422, matching the non-portfolio path.
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_64", Topology: "G-2x2", Capacity: 4, Portfolio: true}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible portfolio: status %d, want 422", resp.StatusCode)
	}
	// A mapping override contradicts racing all strategies: reject loudly
	// rather than silently ignoring it.
	resp = postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Portfolio: true, Mapping: "sta"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("portfolio+mapping: status %d, want 400", resp.StatusCode)
	}
	// A portfolio is one race, not a batch entry.
	var batch batchResponseV2
	postJSON(t, ts.URL+"/v2/batch", batchRequestV2{Requests: []compileRequestV2{
		{Label: "race", Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Portfolio: true},
	}}, &batch)
	if len(batch.Results) != 1 || batch.Results[0].Error == "" {
		t.Errorf("portfolio batch entry accepted: %+v", batch)
	}
}

func TestPortfolioCompile(t *testing.T) {
	ts := testServer(t)
	var got compileResponseV2
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Portfolio: true}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Winner == "" {
		t.Error("portfolio response has no winner")
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}, nil)
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
	if st.JobsCompiled != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 1 compiled and 1 cache hit", st)
	}
	if st.Requests < 3 {
		t.Errorf("requests = %d, want >= 3", st.Requests)
	}
	if st.Workers != 4 {
		t.Errorf("workers = %d, want 4", st.Workers)
	}
}
