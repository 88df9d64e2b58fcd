package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// stripTimes zeroes the wall-clock fields so schedules can be compared
// structurally across runs (pass names and gate deltas stay — they are
// deterministic).
func stripTimes(results []Response) {
	for _, r := range results {
		if r.Result != nil {
			r.Result.CompileTime = 0
			for i := range r.Result.PassTimings {
				r.Result.PassTimings[i].Duration = 0
			}
		}
	}
}

func TestPoolMatchesSerialAndIsDeterministic(t *testing.T) {
	reqs := testGrid(t)
	serialEng := New(Options{CacheSize: -1})
	serial := make([]Response, len(reqs))
	for i, req := range reqs {
		serial[i] = serialEng.Do(context.Background(), req)
	}
	stripTimes(serial)

	for _, workers := range []int{1, 4, 8} {
		pool := Pool{Engine: New(Options{CacheSize: -1}), Workers: workers}
		got := pool.RunRequests(context.Background(), reqs)
		stripTimes(got)
		if len(got) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(got), len(reqs))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("workers=%d request %s: %v", workers, reqs[i].Label, got[i].Err)
			}
			if got[i].Label != reqs[i].Label {
				t.Fatalf("workers=%d: result %d carries label %q, want %q (ordering broken)",
					workers, i, got[i].Label, reqs[i].Label)
			}
			if !reflect.DeepEqual(got[i].Result, serial[i].Result) {
				t.Errorf("workers=%d request %s: parallel result differs from serial", workers, reqs[i].Label)
			}
		}
	}
}

func TestPoolConcurrentRuns(t *testing.T) {
	// Several RunRequests calls against one shared engine at once; exercised
	// under -race in CI.
	eng := New(Options{})
	reqs := testGrid(t)
	done := make(chan error, 3)
	for g := 0; g < 3; g++ {
		go func() {
			pool := Pool{Engine: eng, Workers: 4}
			done <- FirstError(pool.RunRequests(context.Background(), reqs))
		}()
	}
	for g := 0; g < 3; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestPoolRepeatedBatchServedFromCache(t *testing.T) {
	eng := New(Options{})
	pool := Pool{Engine: eng, Workers: 4}
	reqs := testGrid(t)

	first := pool.RunRequests(context.Background(), reqs)
	if err := FirstError(first); err != nil {
		t.Fatal(err)
	}
	afterFirst := eng.Stats()

	second := pool.RunRequests(context.Background(), reqs)
	if err := FirstError(second); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()

	hits := st.Cache.Hits - afterFirst.Cache.Hits
	if need := (9 * len(reqs)) / 10; int(hits) < need {
		t.Errorf("repeated batch: %d/%d served from cache, want >= %d", hits, len(reqs), need)
	}
	if st.Compiled != afterFirst.Compiled {
		t.Errorf("repeated batch recompiled %d requests", st.Compiled-afterFirst.Compiled)
	}
	for i := range second {
		if !second[i].CacheHit {
			t.Errorf("request %s missed the cache on the repeat run", reqs[i].Label)
		}
		if second[i].Result != first[i].Result {
			t.Errorf("request %s: repeat run returned a different result object", reqs[i].Label)
		}
	}
}

func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := Pool{Engine: New(Options{CacheSize: -1}), Workers: 2}
	results := pool.RunRequests(ctx, testGrid(t))
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("request %d succeeded under a cancelled context", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestPoolSharedWorkerBudgetBoundConcurrency(t *testing.T) {
	// Two pools share one worker-bounded (1-slot) engine; with
	// instrumentable requests out of reach (compilers are opaque), assert
	// the observable contract: everything completes correctly and the
	// admission scheduler ends quiescent — no leaked slots, no queued
	// ghosts.
	eng := New(Options{CacheSize: -1, Workers: 1})
	reqs := testGrid(t)
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			pool := Pool{Engine: eng, Workers: 4}
			done <- FirstError(pool.RunRequests(context.Background(), reqs))
		}()
	}
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	st := eng.Stats()
	if st.Sched == nil {
		t.Fatal("worker-bounded engine reported no scheduler stats")
	}
	if st.Sched.Busy != 0 || st.Sched.Queued != 0 {
		t.Errorf("scheduler not quiescent after both runs: busy=%d queued=%d", st.Sched.Busy, st.Sched.Queued)
	}
	// Pool requests default to the batch class; the admissions must be
	// accounted there, not under interactive.
	if batch := st.Sched.Classes[1]; batch.Admitted == 0 {
		t.Errorf("no batch-class admissions recorded: %+v", st.Sched.Classes)
	}
	// A cancelled context must not deadlock on a fully-loaded engine.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := Pool{Engine: eng, Workers: 2}
	for i, r := range pool.RunRequests(ctx, reqs) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestPoolEmptyBatch(t *testing.T) {
	pool := Pool{}
	if got := pool.RunRequests(context.Background(), nil); len(got) != 0 {
		t.Fatalf("empty batch produced %d results", len(got))
	}
}
