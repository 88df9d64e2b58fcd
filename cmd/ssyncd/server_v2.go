package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ssync/internal/auth"
	"ssync/internal/core"
	"ssync/internal/engine"
	"ssync/internal/mapping"
	"ssync/internal/obs"
	"ssync/internal/pass"
	"ssync/internal/sched"
	"ssync/internal/sim"
	"ssync/internal/store"
)

// The /v2 surface is the primary request schema over the engine's
// CompileRequest API: the compiler field addresses the open registry
// (GET /v2/compilers lists it), the pipeline field composes staged
// compilations from the pass registry (GET /v2/passes lists it),
// anneal_seed parameterises the "ssync-annealed" entrant
// deterministically, and responses report single-flight coalescing plus
// per-pass timings.

// passSpecV2 is one pipeline stage over the wire: a registered pass name
// plus its opaque options document.
type passSpecV2 struct {
	Name string `json:"name"`
	// Options is pass-specific JSON, passed through opaquely; unknown
	// fields are rejected by the pass itself.
	Options json.RawMessage `json:"options,omitempty"`
}

// compileRequestV2 describes one compilation over the /v2 wire. Exactly
// one of Benchmark and QASM selects the circuit; at most one of Compiler
// and Pipeline selects the strategy.
type compileRequestV2 struct {
	// Label is echoed back unchanged; useful for correlating batch entries.
	Label string `json:"label,omitempty"`
	// Benchmark names a Table 2 workload, e.g. "QFT_24".
	Benchmark string `json:"benchmark,omitempty"`
	// QASM is an inline OpenQASM 2.0 program.
	QASM string `json:"qasm,omitempty"`
	// Topology names a device ("L-6", "G-2x3", "S-4", ...).
	Topology string `json:"topology"`
	// Capacity is the per-trap slot count; 0 selects the paper's choice.
	Capacity int `json:"capacity,omitempty"`
	// Compiler names any registered compiler (see GET /v2/compilers);
	// "" selects "ssync". Mutually exclusive with Pipeline.
	Compiler string `json:"compiler,omitempty"`
	// Pipeline compiles through an explicit staged pipeline: each entry
	// addresses the pass registry (see GET /v2/passes). A built-in
	// compiler name and its canned pipeline are the same compilation —
	// same cache key — so either form may be used interchangeably.
	Pipeline []passSpecV2 `json:"pipeline,omitempty"`
	// Mapping overrides the initial-mapping strategy ("gathering",
	// "even-divided", "sta") for the ssync compiler family and for
	// pipeline placement passes that do not override it themselves.
	Mapping string `json:"mapping,omitempty"`
	// AnnealSeed overrides the deterministic seed of the "ssync-annealed"
	// compiler (and of pipeline place-annealed stages without their own
	// seed option); nil keeps the default. The seed is part of the cache
	// key.
	AnnealSeed *int64 `json:"anneal_seed,omitempty"`
	// Portfolio races the default portfolio (including the annealed
	// entrant) and returns the best result. Single-compile only.
	Portfolio bool `json:"portfolio,omitempty"`
	// TimeoutMs bounds this request's compile time; 0 uses the server
	// default, and overrides may only lower it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Priority is the scheduling class ("interactive", "batch",
	// "background"). Single compiles default to interactive; batch and
	// portfolio entries default to batch. Under load the admission
	// scheduler hands worker slots out by class weight, and full class
	// queues shed with 429 + Retry-After.
	Priority string `json:"priority,omitempty"`
	// DeadlineMs is the request's completion budget in milliseconds from
	// arrival. Beyond bounding the compile like timeout_ms, it drives
	// deadline-aware admission: a request whose queue-wait estimate
	// already exceeds the deadline is rejected immediately with 503 +
	// Retry-After instead of timing out after queueing.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// passTimingV2 is one executed pipeline stage in a compile response.
type passTimingV2 struct {
	Pass string  `json:"pass"`
	Ms   float64 `json:"ms"`
	// GateDelta is the stage's change in working gate count (basis
	// expansion for decomposition, transport overhead for routing).
	GateDelta int `json:"gate_delta"`
}

// compileResponseV2 is one /v2 compilation outcome (or, with Error set,
// one failed batch entry).
type compileResponseV2 struct {
	Label         string  `json:"label,omitempty"`
	Compiler      string  `json:"compiler,omitempty"`
	Winner        string  `json:"winner,omitempty"` // portfolio entrant that won
	Topology      string  `json:"topology,omitempty"`
	Qubits        int     `json:"qubits,omitempty"`
	TwoQubitGates int     `json:"two_qubit_gates,omitempty"`
	Shuttles      int     `json:"shuttles"`
	Swaps         int     `json:"swaps"`
	SuccessRate   float64 `json:"success_rate"`
	ExecTimeUs    float64 `json:"exec_time_us"`
	CompileMs     float64 `json:"compile_ms"`
	CacheHit      bool    `json:"cache_hit"`
	Key           string  `json:"key,omitempty"`
	Error         string  `json:"error,omitempty"`
	// RequestID echoes the request's correlation ID (the X-Request-ID
	// response header) in the body, so stored responses stay joinable to
	// server logs. Batch entries share the enclosing request's ID.
	RequestID string `json:"request_id,omitempty"`
	// TraceID names the request's distributed trace (also the X-Trace-ID
	// response header); fetch the span tree later at /v2/traces/<id>.
	TraceID string `json:"trace_id,omitempty"`
	// Priority is the scheduling class the request actually ran in —
	// the requested (or default) class after the principal's quota
	// clamp, so a demoted request can see it was demoted.
	Priority string `json:"priority,omitempty"`
	// ErrorStatus classifies a failed batch entry with the HTTP status
	// the same failure would earn on /v2/compile — 429 (class queue
	// full) and 503 (deadline unmeetable) keep their load-shedding
	// semantics even though the batch envelope itself is a 200. Zero on
	// success (and on /v2/compile, where the real status line carries it).
	ErrorStatus int `json:"error_status,omitempty"`
	// RetryAfterMs hints when to retry a shed batch entry (the
	// per-entry equivalent of the Retry-After header); omitted when the
	// scheduler has no drain estimate yet.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// CacheTier names the tier that served a cache hit ("memory" or
	// "disk"); omitted on misses.
	CacheTier string `json:"cache_tier,omitempty"`
	// Coalesced reports that this request attached to an identical
	// in-flight compilation instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Pipeline lists the executed pipeline's pass names in stage order
	// (the canned expansion for built-in compiler names); omitted for
	// opaque registered compilers.
	Pipeline []string `json:"pipeline,omitempty"`
	// Passes itemises the compilation per pass. Cache hits report the
	// timings of the compilation that produced the cached result.
	Passes []passTimingV2 `json:"passes,omitempty"`
}

type batchRequestV2 struct {
	Requests []compileRequestV2 `json:"requests"`
}

type batchResponseV2 struct {
	Results []compileResponseV2 `json:"results"`
	// Errors counts entries that failed; the per-entry Error fields say why.
	Errors int `json:"errors"`
	// RequestID echoes the batch request's correlation ID.
	RequestID string `json:"request_id,omitempty"`
	// TraceID names the batch request's distributed trace.
	TraceID string `json:"trace_id,omitempty"`
}

type compilersResponseV2 struct {
	Compilers []string `json:"compilers"`
}

// passesResponseV2 lists the composable pass surface: every registered
// pass name plus the canned pipelines behind the built-in compiler names
// (the starting points most custom pipelines edit).
type passesResponseV2 struct {
	Passes    []string                `json:"passes"`
	Pipelines map[string][]passSpecV2 `json:"pipelines"`
}

// passStatsV2 aggregates one pass's executions service-wide.
type passStatsV2 struct {
	Runs    uint64  `json:"runs"`
	TotalMs float64 `json:"total_ms"`
	// CacheHits counts executions skipped because the stage was part of
	// a restored pipeline prefix (per-stage caching).
	CacheHits uint64 `json:"cache_hits,omitempty"`
}

// tierStatsV2 breaks one tiered cache down per tier over the wire.
type tierStatsV2 struct {
	MemHits     uint64 `json:"mem_hits"`
	DiskHits    uint64 `json:"disk_hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Errors      uint64 `json:"errors,omitempty"`
	MemEntries  int    `json:"mem_entries"`
	MemCapacity int    `json:"mem_capacity"`
	// Disk-tier fields; present only when -cache-dir is set.
	DiskEntries   int    `json:"disk_entries,omitempty"`
	DiskBytes     int64  `json:"disk_bytes,omitempty"`
	DiskMaxBytes  int64  `json:"disk_max_bytes,omitempty"`
	DiskEvictions uint64 `json:"disk_evictions,omitempty"`
	DiskCorrupt   uint64 `json:"disk_corrupt,omitempty"`
}

func tierStats(st store.TieredStats) tierStatsV2 {
	out := tierStatsV2{
		MemHits: st.MemHits, DiskHits: st.DiskHits, Misses: st.Misses,
		Puts: st.Puts, Errors: st.Errors,
		MemEntries: st.Mem.Entries, MemCapacity: st.Mem.Capacity,
	}
	if st.HasDisk {
		out.DiskEntries = st.Disk.Entries
		out.DiskBytes = st.Disk.Bytes
		out.DiskMaxBytes = st.Disk.MaxBytes
		out.DiskEvictions = st.Disk.Evictions
		out.DiskCorrupt = st.Disk.Corrupt
	}
	return out
}

// storeStatsV2 is the artifact-store section of /v2/stats: the finished
// result cache and (when -stage-cache is on) the per-stage snapshot
// cache, each per tier.
type storeStatsV2 struct {
	Results tierStatsV2  `json:"results"`
	Stages  *tierStatsV2 `json:"stages,omitempty"`
}

// schedClassStatsV2 is one priority class's row in the /v2/stats sched
// section.
type schedClassStatsV2 struct {
	// Weight is the class's share of slot handoffs under contention.
	Weight int `json:"weight"`
	// QueueLimit is the class's admission-queue bound (negative:
	// unbounded).
	QueueLimit int `json:"queue_limit"`
	// Depth is the current queue depth.
	Depth int `json:"depth"`
	// Admitted counts requests that acquired a worker slot.
	Admitted uint64 `json:"admitted"`
	// ShedQueueFull counts arrivals rejected with 429 (queue full).
	ShedQueueFull uint64 `json:"shed_queue_full"`
	// ShedDeadline counts arrivals rejected with 503 (queue-wait
	// estimate already past their deadline).
	ShedDeadline uint64 `json:"shed_deadline"`
	// Abandoned counts waiters that left the queue before being served
	// (client cancelled, timeout expired while queued).
	Abandoned uint64 `json:"abandoned"`
	// AvgWaitMs / MaxWaitMs summarise queue time across admissions that
	// actually queued.
	AvgWaitMs float64 `json:"avg_wait_ms"`
	MaxWaitMs float64 `json:"max_wait_ms"`
}

// schedPrincipalStatsV2 is one principal's scheduler row: how the
// worker-slot budget was actually consumed per identity.
type schedPrincipalStatsV2 struct {
	Name     string `json:"name"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	InFlight int    `json:"in_flight"`
}

// schedStatsV2 is the admission-scheduler section of /v2/stats.
type schedStatsV2 struct {
	// Slots is the worker-slot budget (-workers).
	Slots int `json:"slots"`
	// Busy is the number of slots currently held.
	Busy int `json:"busy"`
	// Queued is the total admission-queue depth across classes.
	Queued int `json:"queued"`
	// AvgServiceMs is the scheduler's service-time estimate (EWMA of
	// slot-hold durations) behind its queue-wait predictions.
	AvgServiceMs float64 `json:"avg_service_ms"`
	// Classes maps each priority class to its row.
	Classes map[string]schedClassStatsV2 `json:"classes"`
	// Principals breaks admissions/sheds/in-flight down per
	// authenticated principal; empty on services without access control.
	Principals []schedPrincipalStatsV2 `json:"principals,omitempty"`
}

// schedStats renders the scheduler snapshot for the wire.
func schedStats(st *sched.Stats) *schedStatsV2 {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := &schedStatsV2{
		Slots: st.Slots, Busy: st.Busy, Queued: st.Queued,
		AvgServiceMs: ms(st.AvgService),
		Classes:      make(map[string]schedClassStatsV2, len(st.Classes)),
	}
	for _, c := range st.Classes {
		out.Classes[string(c.Class)] = schedClassStatsV2{
			Weight:        c.Weight,
			QueueLimit:    c.QueueLimit,
			Depth:         c.Depth,
			Admitted:      c.Admitted,
			ShedQueueFull: c.ShedQueueFull,
			ShedDeadline:  c.ShedDeadline,
			Abandoned:     c.Abandoned,
			AvgWaitMs:     ms(c.AvgWait()),
			MaxWaitMs:     ms(c.MaxWait),
		}
	}
	for _, p := range st.Principals {
		out.Principals = append(out.Principals, schedPrincipalStatsV2{
			Name: p.Name, Admitted: p.Admitted, Shed: p.Shed, InFlight: p.InFlight,
		})
	}
	return out
}

type statsResponseV2 struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Requests       uint64  `json:"requests"`
	JobsCompiled   uint64  `json:"jobs_compiled"`
	JobErrors      uint64  `json:"job_errors"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheEntries   int     `json:"cache_entries"`
	CacheCapacity  int     `json:"cache_capacity"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	Workers        int     `json:"workers"`
	// Coalesced counts requests served by attaching to an in-flight
	// identical compilation (single-flight joins).
	Coalesced uint64 `json:"coalesced"`
	// Compilers lists the registered compiler names.
	Compilers []string `json:"compilers"`
	// Store breaks the artifact store down per cache and per tier;
	// omitted when the engine runs cacheless (-cache < 0).
	Store *storeStatsV2 `json:"store,omitempty"`
	// Sched is the admission scheduler's snapshot — slot occupancy,
	// per-class queue depth/wait and admitted/shed counts — taken from
	// the same engine snapshot as every other section.
	Sched *schedStatsV2 `json:"sched,omitempty"`
	// Passes aggregates pipeline stages by pass name; only compilations
	// that actually ran contribute runs (whole-result cache hits and
	// coalesced waiters do not re-count), while cache_hits counts stages
	// skipped via restored prefixes.
	Passes map[string]passStatsV2 `json:"passes,omitempty"`
	// Auth is the access-control snapshot — key-set generation and
	// per-principal quota budgets; omitted on open services.
	Auth *authStatsV2 `json:"auth,omitempty"`
	// Sim is the state-vector simulator's snapshot: gate applications by
	// execution mode, the resolved -sim-workers budget, and the shared
	// verification-reference cache (hits mean a verify reused a
	// previously simulated reference instead of re-simulating it).
	Sim *sim.Stats `json:"sim,omitempty"`
}

// authStatsV2 is the access-control section of /v2/stats.
type authStatsV2 struct {
	// Keys describes the serving keys-file generation.
	Keys auth.KeySetStats `json:"keys"`
	// Principals lists every tracked principal's quota budget state:
	// token balance, in-flight grants, and admit/demote/shed counters.
	Principals []auth.PrincipalQuotaStats `json:"principals,omitempty"`
}

// pipelineSpecs converts the wire pipeline to the engine's pass specs.
func pipelineSpecs(specs []passSpecV2) []pass.Spec {
	if len(specs) == 0 {
		return nil
	}
	out := make([]pass.Spec, len(specs))
	for i, s := range specs {
		out[i] = pass.Spec{Name: s.Name, Options: s.Options}
	}
	return out
}

// schedParams resolves a wire request's scheduling fields: its priority
// class (def when unset — interactive for single compiles, batch for
// batch entries and portfolio entrants), its absolute deadline, and ctx
// re-bounded by that deadline. The budget runs from arrival — the
// caller passes the moment the HTTP request (or its enclosing batch)
// was accepted, so a batch entry built after its siblings queued
// through the construction limiter does not get its deadline silently
// extended by that wait — and the returned context also covers the
// construction phase: a doomed request is shed at the construction
// limiter's admission control instead of queueing there deadline-less.
// cancel is always non-nil.
func schedParams(ctx context.Context, req compileRequestV2, def sched.Class, arrival time.Time) (_ context.Context, cancel context.CancelFunc, class sched.Class, deadline time.Time, err error) {
	cancel = func() {}
	class, err = sched.ParseClass(req.Priority)
	if err != nil {
		return ctx, cancel, "", deadline, err
	}
	if req.Priority == "" {
		class = def
	}
	// An authenticated request's class is capped by its principal's
	// admission grant (or MaxClass): over-budget principals are demoted
	// down the ladder here instead of rejected. The response's priority
	// field echoes the class actually used.
	class = auth.Clamp(ctx, class)
	if req.DeadlineMs < 0 {
		return ctx, cancel, "", deadline, fmt.Errorf("deadline_ms must not be negative")
	}
	if req.DeadlineMs > 0 {
		deadline = arrival.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	return ctx, cancel, class, deadline, nil
}

// buildRequest turns a /v2 wire request into an engine request. Cheap
// field-level validation (compiler/pipeline resolution, overrides,
// priority class) runs first, so malformed requests are rejected
// without consuming compile capacity; circuit and topology construction
// — CPU work paid before any compile timeout starts — then runs under
// the engine's worker-slot limiter in the request's own priority class,
// so a burst of requests with huge inline QASM programs queues for
// compile slots instead of saturating every request goroutine at once.
// def is the class an entry without an explicit priority lands in;
// arrival anchors the entry's deadline_ms budget.
// resolveStrategy resolves a wire request's execution plan: the registry
// name or explicit pipeline, plus the mapping/anneal overrides folded
// into their config structs. It performs the cheap field-level
// validation (compiler existence, mutually exclusive fields, inert
// overrides) and nothing else — no circuit or topology construction —
// so both the server's buildRequest and the cluster router's key
// computation resolve a request identically.
func resolveStrategy(req compileRequestV2) (name string, cfg *core.Config, ann *mapping.AnnealConfig, err error) {
	name = req.Compiler
	if len(req.Pipeline) > 0 {
		if name != "" {
			return "", nil, nil, fmt.Errorf("pass either compiler or pipeline, not both")
		}
		// Build (and discard) the pipeline now so malformed stages fail
		// as 400s with the offending stage named, not as compile errors.
		built, err := pass.Build(pipelineSpecs(req.Pipeline))
		if err != nil {
			return "", nil, nil, err
		}
		// Reject overrides no stage would read — a mis-placed knob must
		// not succeed silently with a different compilation than asked.
		use := pass.PipelineUse(built)
		if req.Mapping != "" && !use.Config && !use.Mapping {
			return "", nil, nil, fmt.Errorf("mapping override is inert: no pipeline stage reads the scheduler or mapping config")
		}
		if req.AnnealSeed != nil && !use.Anneal {
			return "", nil, nil, fmt.Errorf("anneal_seed is inert: no pipeline stage reads the annealer config (add %s)", pass.PlaceAnnealed)
		}
	} else {
		if name == "" {
			name = engine.CompilerSSync
		}
		if !engine.Registered(name) {
			return "", nil, nil, &engine.UnknownCompilerError{Name: name, Known: engine.Compilers()}
		}
	}
	if req.Mapping != "" {
		if name == engine.CompilerMurali || name == engine.CompilerDai {
			return "", nil, nil, fmt.Errorf("mapping override applies to the ssync compiler only")
		}
		strat, err := mapping.ParseStrategy(req.Mapping)
		if err != nil {
			return "", nil, nil, err
		}
		c := core.DefaultConfig()
		c.Mapping.Strategy = strat
		cfg = &c
	}
	if req.AnnealSeed != nil {
		switch name {
		case engine.CompilerMurali, engine.CompilerDai, engine.CompilerSSync:
			return "", nil, nil, fmt.Errorf("anneal_seed applies to the %q compiler only", engine.CompilerSSyncAnnealed)
		}
		a := mapping.DefaultAnnealConfig()
		a.Seed = *req.AnnealSeed
		ann = &a
	}
	return name, cfg, ann, nil
}

func (s *server) buildRequest(ctx context.Context, req compileRequestV2, def sched.Class, arrival time.Time) (engine.Request, error) {
	var out engine.Request
	ctx, cancel, class, deadline, err := schedParams(ctx, req, def, arrival)
	defer cancel()
	if err != nil {
		return engine.Request{}, err
	}
	name, cfg, ann, err := resolveStrategy(req)
	if err != nil {
		return engine.Request{}, err
	}
	if err := s.eng.LimitAs(ctx, class, func() error {
		c, err := buildCircuit(req)
		if err != nil {
			return err
		}
		topo, err := buildTopology(req)
		if err != nil {
			return err
		}
		out.Circuit, out.Topo = c, topo
		return nil
	}); err != nil {
		return engine.Request{}, err
	}
	out.Label = req.Label
	out.Compiler = name
	out.Pipeline = pipelineSpecs(req.Pipeline)
	out.Config, out.Anneal = cfg, ann
	out.Timeout = s.jobTimeout(req.TimeoutMs)
	out.Priority = class
	out.Deadline = deadline
	return out, nil
}

// compileOne handles one wire request end to end (portfolio or single
// compile). The int is the HTTP status to use when err is non-nil.
func (s *server) compileOne(ctx context.Context, req compileRequestV2) (compileResponseV2, int, error) {
	if req.Portfolio {
		return s.racePortfolio(ctx, req)
	}
	er, err := s.buildRequest(ctx, req, sched.Interactive, time.Now())
	if err != nil {
		return compileResponseV2{}, buildErrorStatus(err), err
	}
	// Compile concurrency is bounded inside the engine (Options.Workers),
	// so a single compile needs no pool plumbing.
	res := s.eng.Do(ctx, er)
	if res.Err != nil {
		return compileResponseV2{}, compileErrorStatus(res.Err), res.Err
	}
	resp := s.render(er, res)
	resp.Priority = string(er.Priority)
	return resp, http.StatusOK, nil
}

// compileBatch handles a batch of wire requests. The int is the HTTP
// status when err is non-nil.
func (s *server) compileBatch(ctx context.Context, entries []compileRequestV2) ([]compileResponseV2, int, error) {
	if len(entries) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("batch needs at least one entry")
	}
	if len(entries) > maxBatchJobs {
		return nil, http.StatusBadRequest,
			fmt.Errorf("batch of %d entries exceeds the service limit of %d", len(entries), maxBatchJobs)
	}
	sizeBudget := 0
	for _, cr := range entries {
		if n, ok := benchmarkSize(cr.Benchmark); ok && n > 0 {
			// Clamp before summing: oversized entries are rejected
			// individually anyway, and the clamp keeps a handful of huge
			// declared sizes from overflowing the budget accumulator.
			if n > maxBenchmarkSize {
				n = maxBenchmarkSize
			}
			sizeBudget += n
		}
	}
	if sizeBudget > maxBatchSizeBudget {
		return nil, http.StatusBadRequest,
			fmt.Errorf("aggregate benchmark size %d exceeds the service limit of %d", sizeBudget, maxBatchSizeBudget)
	}

	// Malformed entries fail individually without sinking the batch; the
	// well-formed remainder is fanned across the pool. One arrival time
	// anchors every entry's deadline_ms: entries build sequentially
	// through the construction limiter, and a later entry's budget must
	// not be silently extended by its siblings' queue time.
	arrival := time.Now()
	results := make([]compileResponseV2, len(entries))
	var reqs []engine.Request
	var reqIdx []int
	for i, cr := range entries {
		if cr.Portfolio {
			results[i] = compileResponseV2{Label: cr.Label, Error: "portfolio is single-compile only; use the compile endpoint"}
			continue
		}
		er, err := s.buildRequest(ctx, cr, sched.Batch, arrival)
		if err != nil {
			results[i] = entryError(cr.Label, err, buildErrorStatus(err))
			continue
		}
		reqs = append(reqs, er)
		reqIdx = append(reqIdx, i)
	}
	// A batch carrying k entries pays the same rate cost as k single
	// requests: the admission at the edge already paid the first token,
	// the rest are charged here against the request's quota grant.
	auth.ChargeExtra(ctx, len(reqs)-1)
	pool := engine.Pool{Engine: s.eng, Workers: s.workers, Timeout: s.timeout}
	for k, res := range pool.RunRequests(ctx, reqs) {
		i := reqIdx[k]
		if res.Err != nil {
			results[i] = entryError(res.Label, res.Err, compileErrorStatus(res.Err))
			continue
		}
		results[i] = s.render(reqs[k], res)
		results[i].Priority = string(reqs[k].Priority)
	}
	return results, http.StatusOK, nil
}

// entryError shapes one failed batch entry, preserving the
// load-shedding contract the batch envelope's 200 would otherwise hide:
// the entry carries the status the failure would earn on /v2/compile
// (429/503 for scheduler sheds) plus the per-entry Retry-After
// equivalent.
func entryError(label string, err error, status int) compileResponseV2 {
	out := compileResponseV2{Label: label, Error: err.Error(), ErrorStatus: status}
	if retry, ok := sched.RetryAfter(err); ok && retry > 0 {
		out.RetryAfterMs = int64(retry / time.Millisecond)
	}
	return out
}

// handleCompileV2 serves POST /v2/compile.
func (s *server) handleCompileV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req compileRequestV2
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	resp, status, err := s.compileOne(r.Context(), req)
	if err != nil {
		writeError(w, status, err)
		return
	}
	resp.RequestID = obs.RequestID(r.Context())
	resp.TraceID = obs.TraceFrom(r.Context()).ID()
	writeJSON(w, http.StatusOK, resp)
}

// handleBatchV2 serves POST /v2/batch.
func (s *server) handleBatchV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req batchRequestV2
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	results, status, err := s.compileBatch(r.Context(), req.Requests)
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	resp := batchResponseV2{
		Results:   results,
		RequestID: obs.RequestID(r.Context()),
		TraceID:   obs.TraceFrom(r.Context()).ID(),
	}
	for _, r2 := range results {
		if r2.Error != "" {
			resp.Errors++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCompilersV2 serves GET /v2/compilers: the registered compiler
// names a request may address.
func (s *server) handleCompilersV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, compilersResponseV2{Compilers: engine.Compilers()})
}

// handlePassesV2 serves GET /v2/passes: the registered pass names a
// pipeline may compose, plus the canned pipelines behind the built-in
// compiler names.
func (s *server) handlePassesV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	names, pipelines := pass.BuiltinPipelines()
	resp := passesResponseV2{Passes: pass.Names(), Pipelines: make(map[string][]passSpecV2, len(names))}
	for i, name := range names {
		specs := make([]passSpecV2, len(pipelines[i]))
		for j, sp := range pipelines[i] {
			specs[j] = passSpecV2{Name: sp.Name, Options: sp.Options}
		}
		resp.Pipelines[name] = specs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStatsV2 serves GET /v2/stats: the request, compile and cache
// counters plus coalescing, the registry listing, the per-tier
// artifact-store breakdown and the per-pass aggregates — all rendered
// from one engine snapshot, so the sections are mutually consistent.
func (s *server) handleStatsV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.statsV2())
}

// statsV2 renders the full /v2/stats body; the periodic stats-file
// flusher (-stats-file) writes the same document, so an operator's
// scraped files and live queries never disagree on schema.
func (s *server) statsV2() statsResponseV2 {
	st := s.eng.Stats()
	resp := statsResponseV2{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Requests:       s.requests.Load(),
		JobsCompiled:   st.Compiled,
		JobErrors:      st.Errors,
		CacheHits:      st.Cache.Hits,
		CacheMisses:    st.Cache.Misses,
		CacheEvictions: st.Cache.Evictions,
		CacheEntries:   st.Cache.Entries,
		CacheCapacity:  st.Cache.Capacity,
		CacheHitRate:   st.Cache.HitRate(),
		Workers:        s.workers,
		Coalesced:      st.Coalesced,
		Compilers:      engine.Compilers(),
	}
	if st.Results.Mem.Capacity > 0 { // zero exactly when the engine runs cacheless
		ss := &storeStatsV2{Results: tierStats(st.Results)}
		if st.Stages.Mem.Capacity > 0 {
			stages := tierStats(st.Stages)
			ss.Stages = &stages
		}
		resp.Store = ss
	}
	if st.Sched != nil {
		resp.Sched = schedStats(st.Sched)
	}
	if s.auth != nil {
		resp.Auth = &authStatsV2{
			Keys:       s.auth.authn.Stats(),
			Principals: s.auth.enforcer.Stats(),
		}
	}
	if len(st.Passes) > 0 {
		resp.Passes = make(map[string]passStatsV2, len(st.Passes))
		for name, ps := range st.Passes {
			resp.Passes[name] = passStatsV2{
				Runs:      ps.Runs,
				TotalMs:   float64(ps.Total) / float64(time.Millisecond),
				CacheHits: ps.CacheHits,
			}
		}
	}
	simStats := st.Sim
	resp.Sim = &simStats
	return resp
}
