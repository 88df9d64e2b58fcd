// Command perfbench is the repository's end-to-end benchmark. It starts
// the ssyncd binary as a child process, drives one workload at it over
// POST /v2/compile from one closed-loop caller on one connection, checks
// every reply, and prints its metrics. With -trace 1 it instead produces
// the per-layer table from server span trees, /v2/stats deltas and an
// in-process replay of the library calls. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	// serverArgs are the ssyncd flags the workload runs under.
	serverArgs []string
	// passesPerSecond fixes the work of a run: --seconds s makes
	// round(s × passesPerSecond) measured passes over the request list,
	// calibrated so a run measures for about s seconds on a 2-CPU host.
	// The work, not the time, is fixed, so every run sends the same mix.
	passesPerSecond float64
	// lists returns what one server process sends: its warm-up pass,
	// then passes first..first+n-1 of the run's measured passes. Each
	// process sends the requests in its own seeded order, the same order
	// in every pass.
	lists func(seed uint64, process, first, n int) ([][]request, error)
}

// repeat returns n+1 copies of one list.
func repeat(list []request, n int) [][]request {
	out := make([][]request, n+1)
	for i := range out {
		out[i] = list
	}
	return out
}

var workloadTable = []workload{
	{
		name:            "hot-hits",
		passesPerSecond: 1.7,
		lists: func(seed uint64, process, _, n int) ([][]request, error) {
			list, err := hotHitsList(seed, process)
			return repeat(list, n), err
		},
	},
	{
		name: "grid-cold",
		// Result and stage caches below one pass's distinct entries, so
		// no request is served from an earlier pass; the stage cache still
		// holds a cell's shared decompose-basis prefix across its four
		// compilers.
		serverArgs:      []string{"-cache", "16", "-stage-cache", "16"},
		passesPerSecond: 0.85,
		lists: func(seed uint64, process, _, n int) ([][]request, error) {
			return repeat(gridColdList(seed, process), n), nil
		},
	},
	{
		name: "verify-shared",
		// A result cache smaller than the list; each pass's fresh verify
		// seed makes every request a result miss anyway.
		serverArgs:      []string{"-cache", "8"},
		passesPerSecond: 1.5,
		lists: func(seed uint64, process, first, n int) ([][]request, error) {
			out := [][]request{verifyList(seed, process, 0)}
			for p := first; p < first+n; p++ {
				out = append(out, verifyList(seed, process, p))
			}
			return out, nil
		},
	},
}

const (
	// setupRepeats is how many server processes a run sets up and
	// measures in turn. setup_s is the median of their set-up times;
	// peak_rss_mib is the mean of their peaks, which depend on each
	// process's request order and spread too widely for a median of five.
	setupRepeats = 5
	// minTail is the number of samples a run keeps beyond its p99.
	minTail = 10
	// replayReps is how many times the traced run replays a pass in
	// process.
	replayReps = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	bin, out string
	seed     uint64
	seconds  int
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-hits, grid-cold or verify-shared")
		seed    = flag.Uint64("seed", 1, "workload seed: request order and verify seeds")
		seconds = flag.Int("seconds", 10, "approximate measuring time of a run; fixes the number of passes")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer table")
		bin     = flag.String("ssyncd", ".bench_build/perfbench/ssyncd", "ssyncd binary to measure")
		out     = flag.String("out", ".bench_build/perfbench", "directory for server logs and span dumps")
	)
	flag.Parse()
	if err := run(*name, *trace, config{bin: *bin, out: *out, seed: *seed, seconds: *seconds}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errNoCounter) {
			fmt.Fprintln(os.Stderr, counterHint())
		}
		os.Exit(1)
	}
}

func run(name string, trace int, cfg config) error {
	var wl *workload
	for i := range workloadTable {
		if workloadTable[i].name == name {
			wl = &workloadTable[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	probe, err := wl.lists(cfg.seed, 0, 1, 0)
	if err != nil {
		return err
	}
	perPass := len(probe[0])
	// Enough requests that at least minTail samples lie beyond p99.
	passes := max(int(math.Round(float64(cfg.seconds)*wl.passesPerSecond)), (100*minTail+perPass-1)/perPass)
	info := map[string]any{
		"workload": wl.name, "seed": cfg.seed, "passes": passes,
		"requests_per_pass": perPass, "host": fingerprint(root),
	}
	var res result
	switch trace {
	case 0:
		res, err = runEndToEnd(cfg, wl, passes, info)
	case 1:
		res, err = runTraced(cfg, wl, passes, info)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	detail, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp starts the server and sends the warm-up pass; it returns the
// daemon and the seconds from exec to a warm server. tag names the
// server's log file.
func setUp(cfg config, wl *workload, tag string, extraArgs []string, warm []request, chk *checker) (*daemon, float64, error) {
	args := append(append([]string(nil), wl.serverArgs...), extraArgs...)
	d, err := startDaemon(cfg.bin, args, filepath.Join(cfg.out, "ssyncd-"+wl.name+"-"+tag+".log"))
	if err != nil {
		return nil, 0, err
	}
	if _, err := runPasses(d, [][]request{warm}, chk, nil); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(d.started).Seconds(), nil
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runEndToEnd measures the workload with the server as users run it.
// The measured passes are split across setupRepeats server processes in
// turn, each set up from exec and sending its own seeded order, so
// per-process effects such as garbage collector timing and the order's
// effect on the heap's peak average out. Each process contributes one
// set-up time and one peak RSS.
func runEndToEnd(cfg config, wl *workload, passes int, info map[string]any) (result, error) {
	chk := newChecker()
	var (
		w            window
		instr        uint64
		setups, rsss []float64
		ids          []string
	)
	for i := 0; i < setupRepeats; i++ {
		first := 1 + i*passes/setupRepeats
		lists, err := wl.lists(cfg.seed, i, first, 1+(i+1)*passes/setupRepeats-first)
		if err != nil {
			return result{}, err
		}
		ids = distinctIDs(lists[0])
		d, setup, err := setUp(cfg, wl, strconv.Itoa(i), nil, lists[0], chk)
		if err != nil {
			return result{}, err
		}
		pw, n, rss, err := measure(d, lists[1:], chk)
		d.stop()
		if err != nil {
			return result{}, err
		}
		w.samples = append(w.samples, pw.samples...)
		w.elapsed += pw.elapsed
		instr += n
		setups = append(setups, setup)
		rsss = append(rsss, rss)
	}
	done := w.completed()
	if done == 0 {
		return result{}, fmt.Errorf("no request succeeded: %v", chk.firstErr)
	}
	shuttles, swaps, succ, qerr := chk.qualityTotals(ids)
	info["setups_s"] = setups
	info["peak_rss_mib"] = rsss
	info["measured_requests"] = len(w.samples)
	info["measured_s"] = w.elapsed.Seconds()
	if chk.firstErr != nil {
		info["first_failure"] = chk.firstErr.Error()
	}
	if qerr != nil {
		info["quality_error"] = qerr.Error()
	}
	m := map[string]metric{
		"latency_p50_ms":       {w.percentileMs(0.50), "ms"},
		"latency_p99_ms":       {w.percentileMs(0.99), "ms"},
		"throughput_rps":       {float64(done) / w.elapsed.Seconds(), "1/s"},
		"instructions_per_req": {float64(instr) / float64(done), "count"},
		"peak_rss_mib":         {mean(rsss), "MiB"},
		"setup_s":              {median(setups), "s"},
		"shuttles_total":       {shuttles, "count"},
		"swaps_total":          {swaps, "count"},
		"success_rate_geomean": {succ, "ratio"},
	}
	return result{
		Correct:   chk.failed == 0 && qerr == nil,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   m,
	}, nil
}

// measure sends passes to a warm server and returns the window, the
// instructions the server retired during it, and its peak RSS.
func measure(d *daemon, passes [][]request, chk *checker) (window, uint64, float64, error) {
	i0, err := d.counter.Read()
	if err != nil {
		return window{}, 0, 0, err
	}
	w, err := runPasses(d, passes, chk, nil)
	if err != nil {
		return window{}, 0, 0, err
	}
	i1, err := d.counter.Read()
	if err != nil {
		return window{}, 0, 0, err
	}
	rss, err := d.peakRSSMiB()
	return w, i1 - i0, rss, err
}

// runTraced produces the per-layer table. Two servers run side by side,
// one as users run it and one keeping every trace, and the measured
// passes alternate between them, so both see the same host conditions:
// the untraced server gives the counters and the reference p50, the
// traced one the span self times. An in-process replay then times the
// library calls no span covers.
func runTraced(cfg config, wl *workload, passes int, info map[string]any) (result, error) {
	lists, err := wl.lists(cfg.seed, 0, 1, passes)
	if err != nil {
		return result{}, err
	}
	chk := newChecker()
	table := layerTable{}
	requests := len(lists[0])
	for _, l := range lists[1:] {
		requests += len(l)
	}
	du, _, err := setUp(cfg, wl, "untraced", nil, lists[0], chk)
	if err != nil {
		return result{}, err
	}
	defer du.stop()
	// The flight recorder keeps sampled traces in what its error and
	// slow classes leave of the buffer, so the buffer is twice the run.
	traceArgs := []string{"-trace-sample", "1", "-trace-buffer", strconv.Itoa(2*requests + 128)}
	dt, _, err := setUp(cfg, wl, "traced", traceArgs, lists[0], chk)
	if err != nil {
		return result{}, err
	}
	defer dt.stop()

	st := &selfTimer{d: dt, total: map[string]float64{}}
	var before, after statsDoc
	var untraced, traced window
	if err := du.getJSON("/v2/stats", &before); err != nil {
		return result{}, err
	}
	for p, list := range lists[1:] {
		d, w, after := du, &untraced, (func(reply) error)(nil)
		if p%2 == 1 {
			d, w, after = dt, &traced, st.add
		}
		pw, err := runPasses(d, [][]request{list}, chk, after)
		if err != nil {
			return result{}, err
		}
		w.samples = append(w.samples, pw.samples...)
		w.elapsed += pw.elapsed
	}
	if err := du.getJSON("/v2/stats", &after); err != nil {
		return result{}, err
	}
	table.addStatsDelta(before, after, len(untraced.samples))
	self := st.perRequest()
	table.addSpanSelf(self)
	p50u, p50t := untraced.percentileMs(0.5), traced.percentileMs(0.5)
	table.set("obs.tracing_overhead_pct", 100*(p50t/p50u-1), "%")

	log := newSpanLog()
	if err := replayInProcess(lists[1], replayReps, log, table); err != nil {
		return result{}, err
	}
	spanFile := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.json", wl.name, cfg.seed))
	if err := log.dump(spanFile); err != nil {
		return result{}, err
	}
	info["measured_requests"] = len(untraced.samples) + len(traced.samples)
	info["traces"] = st.traces
	info["latency_p50_ms_untraced"] = p50u
	info["latency_p50_ms_traced"] = p50t
	info["span_file"] = spanFile
	if chk.firstErr != nil {
		info["first_failure"] = chk.firstErr.Error()
	}
	printTable(wl.name, table, self)
	return result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   table,
	}, nil
}
