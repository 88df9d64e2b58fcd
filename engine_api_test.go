package ssync

import (
	"context"
	"testing"
)

// Tests of the public concurrent-compilation surface: NewEngine,
// CompilePool and Engine.Race.

func batchRequests(t testing.TB) []CompileRequest {
	t.Helper()
	var reqs []CompileRequest
	for _, bench := range []string{"QFT_12", "BV_12"} {
		c, err := Benchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, comp := range []string{MuraliCompilerName, DaiCompilerName, SSyncCompilerName} {
			reqs = append(reqs, CompileRequest{
				Label: bench + "/" + comp, Circuit: c,
				Topo: GridDevice(2, 2, 8), Compiler: comp,
			})
		}
	}
	return reqs
}

func TestPublicCompilePortfolio(t *testing.T) {
	c := QFT(12)
	topo := GridDevice(2, 2, 8)
	out, err := DefaultEngine().Race(context.Background(), c, topo, nil, PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner.Err != nil || out.Winner.Result == nil {
		t.Fatalf("portfolio winner unusable: %+v", out.Winner)
	}
	if len(out.Results) != len(DefaultPortfolio()) {
		t.Errorf("%d results for %d default variants", len(out.Results), len(DefaultPortfolio()))
	}
	win := out.Metrics[out.WinnerIndex]
	for i, m := range out.Metrics {
		if out.Results[i].Err == nil && m.SuccessRate > win.SuccessRate {
			t.Errorf("variant %d beats the declared winner", i)
		}
	}
}

func TestPublicDoAndCompileRequests(t *testing.T) {
	c, err := Benchmark("QFT_12")
	if err != nil {
		t.Fatal(err)
	}
	topo := GridDevice(2, 2, 8)
	var reqs []CompileRequest
	for _, name := range []string{MuraliCompilerName, DaiCompilerName, SSyncCompilerName, SSyncAnnealedCompilerName} {
		reqs = append(reqs, CompileRequest{Label: name, Circuit: c, Topo: topo, Compiler: name})
	}
	for i, r := range CompileRequests(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", reqs[i].Label, r.Err)
		}
		if r.Compiler != reqs[i].Compiler {
			t.Errorf("response compiler %q for request %q", r.Compiler, reqs[i].Compiler)
		}
		if r.Result == nil || r.Result.Schedule == nil {
			t.Errorf("%s: no schedule", reqs[i].Label)
		}
	}
	// The package-level Do shares DefaultEngine with CompileRequests.
	again := Do(context.Background(), reqs[0])
	if again.Err != nil || !again.CacheHit {
		t.Errorf("repeat Do: err=%v hit=%v, want cache hit", again.Err, again.CacheHit)
	}
}

func TestPublicRegisterCompiler(t *testing.T) {
	if err := RegisterCompiler("", nil); err == nil {
		t.Error("empty registration accepted")
	}
	err := RegisterCompiler("public-test/echo",
		func(ctx context.Context, req CompileRequest) (*CompileResult, error) {
			return Compile(DefaultCompileConfig(), req.Circuit, req.Topo)
		})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range Compilers() {
		if name == "public-test/echo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered compiler missing from Compilers() = %v", Compilers())
	}
	resp := Do(context.Background(), CompileRequest{
		Circuit: QFT(8), Topo: GridDevice(2, 2, 6), Compiler: "public-test/echo",
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Compiler != "public-test/echo" {
		t.Errorf("response compiler = %q", resp.Compiler)
	}
}

func TestPublicNewEngineStats(t *testing.T) {
	eng := NewEngine(EngineOptions{CacheSize: 4})
	pool := CompilePool{Engine: eng, Workers: 2}
	reqs := batchRequests(t)
	for _, r := range pool.RunRequests(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := eng.Stats()
	if st.Compiled != uint64(len(reqs)) {
		t.Errorf("compiled = %d, want %d", st.Compiled, len(reqs))
	}
	if st.Cache.Entries > 4 {
		t.Errorf("cache holds %d entries, bound is 4", st.Cache.Entries)
	}
}
