package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ssync/internal/engine"
)

// tieredServer builds a server whose engine has the stage cache and a
// disk tier rooted at dir — the -stage-cache/-cache-dir deployment.
func tieredServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	eng, err := engine.Open(engine.Options{
		Workers:        4,
		StageCacheSize: engine.DefaultStageCacheSize,
		CacheDir:       dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, 4, time.Minute)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func pipelineWireRequest(route string) compileRequestV2 {
	return compileRequestV2{
		Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8,
		Pipeline: []passSpecV2{{Name: "decompose-basis"}, {Name: "place-greedy"}, {Name: route}},
	}
}

// TestStatsReportStoreTiers drives the route-variant workload through
// /v2/compile and checks /v2/stats exposes the per-tier and per-stage
// counters: decompose+place ran once, the stage cache served the other
// two variants, and the disk tier holds the blobs.
func TestStatsReportStoreTiers(t *testing.T) {
	ts := tieredServer(t, t.TempDir())
	for _, route := range []string{"route-ssync", "route-murali", "route-dai"} {
		var got compileResponseV2
		resp := postJSON(t, ts.URL+"/v2/compile", pipelineWireRequest(route), &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", route, resp.StatusCode)
		}
		if got.CacheHit {
			t.Errorf("%s: distinct pipeline reported a whole-result cache hit", route)
		}
	}

	httpResp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var st statsResponseV2
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil || st.Store.Stages == nil {
		t.Fatal("stats missing the store/stages sections")
	}
	for _, stage := range []string{"decompose-basis", "place-greedy"} {
		ps := st.Passes[stage]
		if ps.Runs != 1 || ps.CacheHits != 2 {
			t.Errorf("%s: runs=%d cache_hits=%d, want 1 run, 2 hits across three route variants",
				stage, ps.Runs, ps.CacheHits)
		}
	}
	if st.Store.Stages.MemHits != 2 {
		t.Errorf("stage tier mem_hits = %d, want 2", st.Store.Stages.MemHits)
	}
	if st.Store.Results.DiskEntries == 0 || st.Store.Results.DiskBytes == 0 {
		t.Errorf("disk tier empty after three compiles: %+v", st.Store.Results)
	}
	if st.JobsCompiled != 3 {
		t.Errorf("jobs_compiled = %d, want 3", st.JobsCompiled)
	}
}

// TestRestartServesFromDiskTier is the service-level persistence check:
// a second server over the same -cache-dir answers a previously compiled
// request as a disk-tier cache hit without compiling anything.
func TestRestartServesFromDiskTier(t *testing.T) {
	dir := t.TempDir()
	req := compileRequestV2{Benchmark: "BV_12", Topology: "S-4", Capacity: 8}

	first := tieredServer(t, dir)
	var cold compileResponseV2
	if resp := postJSON(t, first.URL+"/v2/compile", req, &cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cold.CacheHit {
		t.Fatal("cold compile reported a cache hit")
	}
	first.Close()

	restarted := tieredServer(t, dir)
	var warm compileResponseV2
	if resp := postJSON(t, restarted.URL+"/v2/compile", req, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !warm.CacheHit || warm.CacheTier != "disk" {
		t.Fatalf("restarted server: cache_hit=%v cache_tier=%q, want a disk-tier hit",
			warm.CacheHit, warm.CacheTier)
	}
	if warm.Shuttles != cold.Shuttles || warm.Swaps != cold.Swaps || warm.Key != cold.Key {
		t.Errorf("disk-served result differs: %+v vs %+v", warm, cold)
	}
	httpResp, err := http.Get(restarted.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var st statsResponseV2
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsCompiled != 0 {
		t.Errorf("restarted server compiled %d jobs, want 0 (disk tier served)", st.JobsCompiled)
	}
	if st.Store == nil || st.Store.Results.DiskHits != 1 {
		t.Errorf("restarted stats missing the disk hit: %+v", st.Store)
	}
}
