package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssync/internal/core"
	"ssync/internal/engine"
)

// schedTestSeq keeps test-compiler registrations unique: the registry
// is process-wide and append-only, and the race CI job reruns the suite
// in one process (-count=3).
var schedTestSeq atomic.Uint64

// gatedServer builds a server over a 1-slot cacheless engine plus a
// registered compiler that reports starts and blocks until released, so
// tests can saturate the scheduler deterministically.
func gatedServer(t *testing.T, queueLimit int) (ts *httptest.Server, compiler string, starts chan string, proceed chan struct{}) {
	t.Helper()
	starts = make(chan string, 32)
	proceed = make(chan struct{})
	compiler = fmt.Sprintf("test/gated#%d", schedTestSeq.Add(1))
	engine.MustRegister(compiler, func(ctx context.Context, req engine.Request) (*core.Result, error) {
		select {
		case starts <- req.Label:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case <-proceed:
			// The server renders results through the scoring simulation,
			// so the stand-in must produce a real schedule.
			return engine.Direct(engine.Request{Circuit: req.Circuit, Topo: req.Topo})
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := newServer(engine.New(engine.Options{CacheSize: -1, Workers: 1, QueueLimit: queueLimit}), 1, time.Minute)
	ts = httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, compiler, starts, proceed
}

// statsV2 fetches /v2/stats.
func statsV2(t *testing.T, ts *httptest.Server) statsResponseV2 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statsResponseV2
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitQueued polls /v2/stats until the total admission-queue depth
// reaches want.
func waitQueued(t *testing.T, ts *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := statsV2(t, ts)
		if st.Sched != nil && st.Sched.Queued == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queued (sched=%+v)", want, st.Sched)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueueFullSheds429 is the end-to-end shedding contract: with the
// single worker slot held and the interactive queue at its bound,
// /v2/compile rejects new arrivals — registered and built-in compilers
// alike — with 429 + Retry-After and a structured error body, never a
// generic 500.
func TestQueueFullSheds429(t *testing.T) {
	ts, compiler, starts, proceed := gatedServer(t, 1)
	req := compileRequestV2{Label: "held", Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: compiler}

	var wg sync.WaitGroup
	post := func(label string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := req
			r.Label = label
			var got compileResponseV2
			if resp := postJSON(t, ts.URL+"/v2/compile", r, &got); resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", label, resp.StatusCode)
			}
		}()
	}
	post("held")
	if got := <-starts; got != "held" {
		t.Fatalf("first compile was %q", got)
	}
	post("queued") // parks in the construction limiter's interactive queue
	waitQueued(t, ts, 1)

	var errBody map[string]string
	resp := postJSON(t, ts.URL+"/v2/compile", req, &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("/v2 over-queue status = %d, want 429 (%v)", resp.StatusCode, errBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/v2 429 missing Retry-After")
	}
	if errBody["error"] == "" {
		t.Error("/v2 429 missing structured error body")
	}

	// A built-in compiler sheds the same way: with the slot held and the
	// interactive queue full, admission sheds before any compiler runs.
	builtin := compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: "ssync"}
	resp = postJSON(t, ts.URL+"/v2/compile", builtin, &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("built-in over-queue status = %d, want 429 (%v)", resp.StatusCode, errBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("built-in 429 missing Retry-After")
	}

	st := statsV2(t, ts)
	if st.Sched == nil {
		t.Fatal("stats missing sched section")
	}
	if got := st.Sched.Classes["interactive"].ShedQueueFull; got != 2 {
		t.Errorf("interactive shed_queue_full = %d, want 2", got)
	}
	if st.Sched.Slots != 1 || st.Sched.Busy != 1 {
		t.Errorf("sched gauges = slots %d busy %d, want 1/1", st.Sched.Slots, st.Sched.Busy)
	}

	proceed <- struct{}{}
	proceed <- struct{}{}
	wg.Wait()
}

// TestDeadlineSheds503: a deadline_ms the queue-wait estimate already
// overruns is rejected at admission with 503 + Retry-After — the
// request never queues and never times out.
func TestDeadlineSheds503(t *testing.T) {
	ts, compiler, starts, proceed := gatedServer(t, -1)
	// Seed the scheduler's service-time estimate with one uncontended
	// ~500ms compile (the gated compiler held open for that long): the
	// EWMA lands near 60ms, far above the probe's 25ms budget, and the
	// budget itself is wide enough that request-processing overhead on a
	// loaded CI runner cannot expire the context before admission runs
	// (which would surface as 504 instead of the 503 under test).
	var wg sync.WaitGroup
	seed := compileRequestV2{Label: "seed", Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: compiler}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var got compileResponseV2
		if resp := postJSON(t, ts.URL+"/v2/compile", seed, &got); resp.StatusCode != http.StatusOK {
			t.Errorf("seed: status %d", resp.StatusCode)
		}
	}()
	<-starts
	time.Sleep(500 * time.Millisecond)
	proceed <- struct{}{}
	wg.Wait()

	// Saturate the only slot again.
	hold := seed
	hold.Label = "held"
	wg.Add(1)
	go func() {
		defer wg.Done()
		var got compileResponseV2
		if resp := postJSON(t, ts.URL+"/v2/compile", hold, &got); resp.StatusCode != http.StatusOK {
			t.Errorf("held: status %d", resp.StatusCode)
		}
	}()
	<-starts

	doomed := seed
	doomed.Label = "doomed"
	doomed.DeadlineMs = 25 // ~60ms estimate against a 25ms budget
	var errBody map[string]string
	resp := postJSON(t, ts.URL+"/v2/compile", doomed, &errBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("doomed status = %d, want 503 (%v)", resp.StatusCode, errBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if st := statsV2(t, ts); st.Sched.Classes["interactive"].ShedDeadline != 1 {
		t.Errorf("shed_deadline = %d, want 1", st.Sched.Classes["interactive"].ShedDeadline)
	}
	proceed <- struct{}{}
	wg.Wait()
}

func TestPriorityValidation(t *testing.T) {
	ts := testServer(t)
	var errBody map[string]string
	resp := postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Priority: "urgent"}, &errBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority status = %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v2/compile",
		compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, DeadlineMs: -5}, &errBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline_ms status = %d, want 400", resp.StatusCode)
	}
}

// TestBatchEntryShedKeepsContract: a batch entry shed by admission
// control must not degrade to an opaque error string inside the 200
// envelope — the entry carries the status the same failure would earn
// on /v2/compile (429) plus the per-entry Retry-After equivalent.
func TestBatchEntryShedKeepsContract(t *testing.T) {
	ts, compiler, starts, proceed := gatedServer(t, 1)
	req := compileRequestV2{Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8, Compiler: compiler, Priority: "batch"}

	var wg sync.WaitGroup
	post := func(label string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := req
			r.Label = label
			var got compileResponseV2
			if resp := postJSON(t, ts.URL+"/v2/compile", r, &got); resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", label, resp.StatusCode)
			}
		}()
	}
	post("held")
	if got := <-starts; got != "held" {
		t.Fatalf("first compile was %q", got)
	}
	post("queued") // fills the 1-deep batch queue at the construction limiter
	waitQueued(t, ts, 1)

	var got batchResponseV2
	resp := postJSON(t, ts.URL+"/v2/batch", batchRequestV2{Requests: []compileRequestV2{
		{Label: "shed-me", Benchmark: "BV_12", Topology: "S-4", Capacity: 8, Compiler: compiler},
	}}, &got)
	if resp.StatusCode != http.StatusOK || got.Errors != 1 {
		t.Fatalf("batch envelope: status %d, %d errors; want 200 with 1 entry error", resp.StatusCode, got.Errors)
	}
	entry := got.Results[0]
	if entry.Error == "" || entry.ErrorStatus != http.StatusTooManyRequests {
		t.Fatalf("shed entry = %+v; want error_status 429 with a structured error", entry)
	}

	proceed <- struct{}{}
	proceed <- struct{}{}
	wg.Wait()
}

// TestBatchEntriesDefaultToBatchClass: /v2/batch entries without an
// explicit priority are admitted in the batch class, visible in the
// stats sched section; an explicit per-entry priority overrides it.
func TestBatchEntriesDefaultToBatchClass(t *testing.T) {
	srv := newServer(engine.New(engine.Options{Workers: 2}), 2, time.Minute)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	var got batchResponseV2
	resp := postJSON(t, ts.URL+"/v2/batch", batchRequestV2{Requests: []compileRequestV2{
		{Label: "a", Benchmark: "QFT_12", Topology: "G-2x2", Capacity: 8},
		{Label: "b", Benchmark: "BV_12", Topology: "G-2x2", Capacity: 8, Priority: "background"},
	}}, &got)
	if resp.StatusCode != http.StatusOK || got.Errors != 0 {
		t.Fatalf("batch failed: status %d, %d errors", resp.StatusCode, got.Errors)
	}
	st := statsV2(t, ts)
	if st.Sched == nil {
		t.Fatal("stats missing sched section")
	}
	if st.Sched.Classes["batch"].Admitted == 0 {
		t.Errorf("no batch-class admissions: %+v", st.Sched.Classes)
	}
	if st.Sched.Classes["background"].Admitted == 0 {
		t.Errorf("explicit background priority not honoured: %+v", st.Sched.Classes)
	}
}
