package engine

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ssync/internal/core"
	"ssync/internal/mapping"
	"ssync/internal/qasm"
)

// testGrid is the quick workload×topology×compiler grid shared by the
// batch tests and benchmarks.
func testGrid(t testing.TB) []Request {
	var reqs []Request
	for _, bench := range []string{"QFT_12", "Adder_4", "BV_12"} {
		for _, topoName := range []string{"S-4", "G-2x2"} {
			for _, comp := range []string{CompilerMurali, CompilerDai, CompilerSSync} {
				reqs = append(reqs, testRequest(t, bench, topoName, 8, comp))
			}
		}
	}
	return reqs
}

func TestJobKeyStableAcrossReparse(t *testing.T) {
	j := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)
	k1, err := RequestKey(j)
	if err != nil {
		t.Fatal(err)
	}
	// A gate-order-preserving round trip through the canonical QASM form
	// must land on the same key: content addressing may not depend on
	// which *Circuit object carries the program.
	reparsed, err := qasm.Parse(qasm.Write(j.Circuit))
	if err != nil {
		t.Fatal(err)
	}
	j2 := j
	j2.Circuit = reparsed
	k2, err := RequestKey(j2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("key changed across reparse: %s vs %s", k1, k2)
	}

	// And a second round trip stays fixed (canonical form is a fixpoint).
	again, err := qasm.Parse(qasm.Write(reparsed))
	if err != nil {
		t.Fatal(err)
	}
	j3 := j
	j3.Circuit = again
	k3, err := RequestKey(j3)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Fatalf("key drifted on second reparse: %s vs %s", k1, k3)
	}
}

func TestJobKeySeparatesRequests(t *testing.T) {
	base := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)
	baseKey, err := RequestKey(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Request{
		"different circuit":  testRequest(t, "BV_12", "G-2x2", 8, CompilerSSync),
		"different topology": testRequest(t, "QFT_12", "S-4", 8, CompilerSSync),
		"different capacity": testRequest(t, "QFT_12", "G-2x2", 9, CompilerSSync),
		"different compiler": testRequest(t, "QFT_12", "G-2x2", 8, CompilerDai),
	}
	cfg := core.DefaultConfig()
	cfg.Mapping.Strategy = mapping.EvenDivided
	withCfg := base
	withCfg.Config = &cfg
	variants["different config"] = withCfg
	for name, j := range variants {
		k, err := RequestKey(j)
		if err != nil {
			t.Fatal(err)
		}
		if k == baseKey {
			t.Errorf("%s produced the same key %s", name, k)
		}
	}

	// The empty compiler name is an alias for ssync, and an explicit default
	// config is the same request as a nil config.
	alias := base
	alias.Compiler = ""
	defCfg := core.DefaultConfig()
	alias.Config = &defCfg
	k, err := RequestKey(alias)
	if err != nil {
		t.Fatal(err)
	}
	if k != baseKey {
		t.Errorf("ssync alias + explicit default config changed the key")
	}

	// Labels and timeouts are delivery details, not content.
	relabeled := base
	relabeled.Label = "other"
	relabeled.Timeout = time.Second
	if k, _ := RequestKey(relabeled); k != baseKey {
		t.Errorf("label/timeout changed the key")
	}
}

func TestCompileMatchesDirectPath(t *testing.T) {
	eng := New(Options{})
	req := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)
	got := eng.Do(context.Background(), req)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want, err := core.Compile(core.DefaultConfig(), req.Circuit, req.Topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result.Schedule, want.Schedule) {
		t.Error("engine schedule differs from direct core.Compile")
	}
	if got.Result.Counts != want.Counts {
		t.Errorf("counts differ: %+v vs %+v", got.Result.Counts, want.Counts)
	}
}

func TestCompileCacheRoundTrip(t *testing.T) {
	eng := New(Options{})
	req := testRequest(t, "Adder_4", "S-4", 8, CompilerSSync)
	first := eng.Do(context.Background(), req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Error("first compile reported a cache hit")
	}
	second := eng.Do(context.Background(), req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Error("second identical compile missed the cache")
	}
	if second.Result != first.Result {
		t.Error("cache hit returned a different result object")
	}
	st := eng.Stats()
	if st.Compiled != 1 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("stats = %+v, want 1 compile, 1 hit, 1 miss", st)
	}
}

func TestCompileUnknownCompiler(t *testing.T) {
	eng := New(Options{})
	req := testRequest(t, "BV_12", "S-4", 8, "qiskit")
	if res := eng.Do(context.Background(), req); res.Err == nil {
		t.Fatal("unknown compiler accepted")
	}
	st := eng.Stats()
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	if st.Compiled != 0 {
		t.Errorf("compiled = %d, want 0 — nothing was executed", st.Compiled)
	}
}

func TestCompileTimeout(t *testing.T) {
	eng := New(Options{})
	req := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)
	req.Timeout = time.Nanosecond
	res := eng.Do(context.Background(), req)
	if res.Err == nil {
		t.Fatal("1ns timeout did not fail the request")
	}
	// A timed-out result must never poison the cache.
	req.Timeout = 0
	if again := eng.Do(context.Background(), req); again.Err != nil || again.CacheHit {
		t.Errorf("post-timeout compile: err=%v hit=%v, want clean miss", again.Err, again.CacheHit)
	}
}

func TestCompileCancelledContext(t *testing.T) {
	eng := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := eng.Do(ctx, testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync))
	if res.Err == nil {
		t.Fatal("cancelled context did not fail the request")
	}
}
