package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ssync/internal/circuit"
	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/pass"
	"ssync/internal/qasm"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// passNames are the passes whose runs and time the per-layer table reports.
var passNames = []string{
	"decompose-basis", "place-greedy", "place-annealed",
	"route-ssync", "route-murali", "route-dai", "verify-statevec",
}

// tierDoc is one cache's row of the /v2/stats store section.
type tierDoc struct {
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	Puts     uint64 `json:"puts"`
}

func (t tierDoc) minus(o tierDoc) tierDoc {
	return tierDoc{t.MemHits - o.MemHits, t.DiskHits - o.DiskHits, t.Misses - o.Misses, t.Puts - o.Puts}
}

func (t tierDoc) hitRatio() float64 {
	hits := t.MemHits + t.DiskHits
	return ratio(float64(hits), float64(hits+t.Misses))
}

type passDoc struct {
	Runs    uint64  `json:"runs"`
	TotalMs float64 `json:"total_ms"`
}

// statsDoc is the subset of GET /v2/stats the layer table reads.
type statsDoc struct {
	Coalesced uint64 `json:"coalesced"`
	Store     struct {
		Results tierDoc `json:"results"`
		Stages  tierDoc `json:"stages"`
	} `json:"store"`
	Passes map[string]passDoc `json:"passes"`
	Sim    struct {
		ParallelApplies uint64 `json:"parallel_applies"`
		SerialApplies   uint64 `json:"serial_applies"`
		RefCache        struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"ref_cache"`
	} `json:"sim"`
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerTable is the per-layer result of a traced run, by metric name.
type layerTable map[string]metric

func (t layerTable) set(name string, v float64, unit string) { t[name] = metric{Value: v, Unit: unit} }

// addStatsDelta adds the counters the server itself keeps, as deltas over
// the measured window of n requests.
func (t layerTable) addStatsDelta(before, after statsDoc, n int) {
	res := after.Store.Results.minus(before.Store.Results)
	stg := after.Store.Stages.minus(before.Store.Stages)
	t.set("store.results.hit_ratio", res.hitRatio(), "ratio")
	t.set("store.results.puts_per_req", ratio(float64(res.Puts), float64(n)), "count")
	t.set("store.stages.hit_ratio", stg.hitRatio(), "ratio")
	for _, name := range passNames {
		a, b := after.Passes[name], before.Passes[name]
		t.set("pass."+name+".ms", ratio(a.TotalMs-b.TotalMs, float64(n)), "ms")
		t.set("pass."+name+".runs", float64(a.Runs-b.Runs), "count")
	}
	par := float64(after.Sim.ParallelApplies - before.Sim.ParallelApplies)
	ser := float64(after.Sim.SerialApplies - before.Sim.SerialApplies)
	t.set("sim.parallel_apply_ratio", ratio(par, par+ser), "ratio")
	hits := float64(after.Sim.RefCache.Hits - before.Sim.RefCache.Hits)
	misses := float64(after.Sim.RefCache.Misses - before.Sim.RefCache.Misses)
	t.set("sim.ref_cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	t.set("engine.coalesced", float64(after.Coalesced-before.Coalesced), "count")
}

// traceDoc is the subset of GET /v2/traces/{id} the table reads.
type traceDoc struct {
	Spans []span `json:"spans"`
}

// selfTimer accumulates the self time of each span name over the
// traces of successful requests, fetched from the flight recorder right
// after each reply: the recorder's slow class evicts traces as slower
// ones arrive, so a fetch after the whole window would miss some.
type selfTimer struct {
	d      *daemon
	total  map[string]float64
	traces int
}

func (st *selfTimer) add(rep reply) error {
	var doc traceDoc
	if err := st.d.getJSON("/v2/traces/"+rep.TraceID, &doc); err != nil {
		return fmt.Errorf("fetch trace: %w", err)
	}
	st.traces++
	for name, v := range selfTimes(doc.Spans) {
		st.total[name] += v
	}
	return nil
}

// perRequest returns the mean self time per request of each span name.
func (st *selfTimer) perRequest() map[string]float64 {
	out := map[string]float64{}
	for name, v := range st.total {
		out[name] = ratio(v, float64(st.traces))
	}
	return out
}

// addSpanSelf adds the layers read from server span trees.
func (t layerTable) addSpanSelf(self map[string]float64) {
	t.set("edge.self_ms", self["http /v2/compile"], "ms")
	t.set("store.results.probe_ms", self["cache.results"], "ms")
	t.set("store.stages.scan_ms", self["cache.stages"], "ms")
	t.set("sched.wait_ms", self["admission"]+self["sched.queue"], "ms")
}

// inProcessCalls are the public calls the replay times, in the order a
// request makes them.
var inProcessCalls = []struct{ span, metric string }{
	{"workloads.Build", "workloads.build_ms"},
	{"qasm.Parse", "qasm.parse_ms"},
	{"device.ByName", "device.topology_ms"},
	{"engine.RequestKey", "engine.key_ms"},
	{"engine.Do", "engine.do_hit_ms"},
	{"sim.Run", "sim.score_ms"},
}

// replayRequest is a wire request decoded back into library calls.
type replayRequest struct {
	r    request
	wire wireRequest
}

// circuit mirrors the server's circuit construction; the span name is
// the call it makes.
func (rr replayRequest) circuit() (*circuit.Circuit, string, error) {
	if rr.wire.QASM != "" {
		c, err := qasm.Parse(rr.wire.QASM)
		return c, "qasm.Parse", err
	}
	c, err := workloads.Build(rr.wire.Benchmark)
	return c, "workloads.Build", err
}

// topology mirrors the server's device construction.
func (rr replayRequest) topology() (*device.Topology, error) {
	capacity := rr.wire.Capacity
	if capacity == 0 {
		capacity = device.PaperCapacity(rr.wire.Topology)
	}
	return device.ByName(rr.wire.Topology, capacity)
}

// engineRequest mirrors the server's request construction.
func (rr replayRequest) engineRequest(c *circuit.Circuit, topo *device.Topology) engine.Request {
	req := engine.Request{Circuit: c, Topo: topo, Compiler: rr.wire.Compiler}
	for _, p := range rr.wire.Pipeline {
		req.Pipeline = append(req.Pipeline, pass.Spec{Name: p.Name, Options: p.Options})
	}
	return req
}

// build constructs the engine request without timing anything.
func (rr replayRequest) build() (engine.Request, error) {
	c, _, err := rr.circuit()
	if err != nil {
		return engine.Request{}, err
	}
	topo, err := rr.topology()
	if err != nil {
		return engine.Request{}, err
	}
	return rr.engineRequest(c, topo), nil
}

// replayInProcess replays one pass of requests through the library calls
// the server makes for them, timing each call in a benchmark span:
// building the circuit and device, computing the request key, a
// cache-hit Engine.Do on an engine primed with the same requests, and
// the success-rate scoring. It also counts heap allocations per hit
// along build → key → Engine.Do.
func replayInProcess(list []request, reps int, log *spanLog, t layerTable) error {
	rrs := make([]replayRequest, len(list))
	for i, r := range list {
		rrs[i].r = r
		if err := json.Unmarshal(r.Body, &rrs[i].wire); err != nil {
			return err
		}
	}
	eng := engine.New(engine.Options{StageCacheSize: engine.DefaultStageCacheSize})
	ctx := context.Background()
	// Prime: compile every request once.
	for _, rr := range rrs {
		req, err := rr.build()
		if err != nil {
			return err
		}
		if res := eng.Do(ctx, req); res.Err != nil {
			return fmt.Errorf("%s: %w", rr.r.ID, res.Err)
		}
	}
	timedHit := func(rr replayRequest, parent string) error {
		var (
			c    *circuit.Circuit
			topo *device.Topology
			key  engine.Key
			res  engine.Response
			err  error
		)
		id, start := log.newID(), time.Now()
		c, name, err := rr.circuit()
		log.record(id, parent, name, start)
		if err != nil {
			return err
		}
		log.time(parent, "device.ByName", func() { topo, err = rr.topology() })
		if err != nil {
			return err
		}
		req := rr.engineRequest(c, topo)
		log.time(parent, "engine.RequestKey", func() { key, err = engine.RequestKey(req) })
		if err != nil {
			return err
		}
		log.time(parent, "engine.Do", func() { res = eng.Do(ctx, req) })
		if res.Err != nil {
			return fmt.Errorf("%s: %w", rr.r.ID, res.Err)
		}
		if !res.CacheHit || res.Key != key {
			return fmt.Errorf("%s: in-process replay missed the primed cache", rr.r.ID)
		}
		log.time(parent, "sim.Run", func() { sim.Run(res.Result.Schedule, topo, sim.DefaultOptions()) })
		return nil
	}
	for rep := 0; rep < reps; rep++ {
		for _, rr := range rrs {
			id, start := log.newID(), time.Now()
			if err := timedHit(rr, id); err != nil {
				return err
			}
			log.record(id, "", "request", start)
		}
	}
	sums, counts := map[string]float64{}, map[string]int{}
	for _, s := range log.spans {
		sums[s.Name] += s.Dur
		counts[s.Name]++
	}
	for _, call := range inProcessCalls {
		t.set(call.metric, ratio(sums[call.span], float64(counts[call.span])), "ms")
	}

	// Allocations along build → key → Engine.Do, untimed.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 0
	for rep := 0; rep < reps; rep++ {
		for _, rr := range rrs {
			req, err := rr.build()
			if err != nil {
				return err
			}
			if _, err := engine.RequestKey(req); err != nil {
				return err
			}
			if res := eng.Do(ctx, req); res.Err != nil || !res.CacheHit {
				return fmt.Errorf("%s: allocation replay did not hit", rr.r.ID)
			}
			n++
		}
	}
	runtime.ReadMemStats(&after)
	t.set("engine.hit_allocs", float64(after.Mallocs-before.Mallocs)/float64(n), "count")
	return nil
}

// printTable writes the per-layer table, and the server's span self time
// per request with each span's share, to stdout.
func printTable(workload string, t layerTable, self map[string]float64) {
	fmt.Printf("per-layer table: %s\n", workload)
	names := make([]string, 0, len(t))
	for name := range t {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-32s %14.6f %s\n", name, t[name].Value, t[name].Unit)
	}
	var total float64
	spanNames := make([]string, 0, len(self))
	for name, v := range self {
		total += v
		spanNames = append(spanNames, name)
	}
	sort.Slice(spanNames, func(i, j int) bool { return self[spanNames[i]] > self[spanNames[j]] })
	fmt.Printf("server span self time per request: %s (total %.4f ms)\n", workload, total)
	for _, name := range spanNames {
		fmt.Printf("  %-32s %10.4f ms %6.1f%%\n", name, self[name], 100*ratio(self[name], total))
	}
}
