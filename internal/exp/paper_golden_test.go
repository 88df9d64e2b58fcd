package exp

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssync/internal/device"
	"ssync/internal/engine"
	"ssync/internal/sim"
)

// TestPaperGridGolden pins the paper's Figs. 8–10 results as numbers,
// not directions: every panel of the full-scale grid compiled with the
// Murali and Dai baselines, S-SYNC and annealed S-SYNC at the paper's
// per-topology capacities. Shuttle and SWAP counts must match exactly;
// the simulated success rate within a relative 1e-9 (floating-point
// summation order is the only legitimate source of drift). After an
// intentional change to compile quality, refresh the golden with:
//
//	go test ./internal/exp/ -run TestPaperGridGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_grid.golden from the current compilers")

const paperGolden = "testdata/paper_grid.golden"

// paperRow is one compiled grid panel.
type paperRow struct {
	App, Topo, Compiler string
	Shuttles, Swaps     int
	Success             float64
}

func (r paperRow) id() string { return r.App + " " + r.Topo + " " + r.Compiler }

func TestPaperGridGolden(t *testing.T) {
	got := compilePaperGrid(t)
	if *updateGolden {
		if err := writePaperGolden(got); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", paperGolden)
		return
	}
	want, err := readPaperGolden()
	if err != nil {
		t.Fatalf("reading golden (run `go test ./internal/exp/ -run TestPaperGridGolden -update`): %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("grid has %d compilations, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.id() != w.id() {
			t.Fatalf("row %d is %q, golden has %q", i, g.id(), w.id())
		}
		if g.Shuttles != w.Shuttles || g.Swaps != w.Swaps {
			t.Errorf("%s: shuttles/swaps = %d/%d, golden %d/%d", w.id(), g.Shuttles, g.Swaps, w.Shuttles, w.Swaps)
		}
		if math.Abs(g.Success-w.Success) > 1e-9*math.Abs(w.Success) {
			t.Errorf("%s: success rate = %.17g, golden %.17g", w.id(), g.Success, w.Success)
		}
	}
	// The benchmark's shuttles_total/swaps_total are sums over the same
	// 108 compilations; pin them too so the two can be cross-checked.
	shuttles, swaps := 0, 0
	for _, r := range got {
		shuttles += r.Shuttles
		swaps += r.Swaps
	}
	if shuttles != 15509 || swaps != 48261 {
		t.Errorf("grid totals = %d shuttles, %d swaps; want 15509, 48261", shuttles, swaps)
	}
}

// compilePaperGrid compiles every Figs. 8–10 panel with the four grid
// compilers, in app (sorted) → topology → compiler order, and scores each
// schedule exactly as ssyncd does (sim.Run under the default options).
func compilePaperGrid(t *testing.T) []paperRow {
	t.Helper()
	apps, build := comparisonApps(Options{})
	compilers := []string{engine.CompilerMurali, engine.CompilerDai, engine.CompilerSSync, engine.CompilerSSyncAnnealed}
	var reqs []engine.Request
	for _, app := range sortedKeys(apps) {
		c, err := build(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range apps[app] {
			topo, err := device.ByName(tn, device.PaperCapacity(tn))
			if err != nil {
				t.Fatal(err)
			}
			for _, comp := range compilers {
				reqs = append(reqs, engine.Request{Label: app, Circuit: c, Topo: topo, Compiler: comp})
			}
		}
	}
	pool := engine.Pool{Engine: engine.New(engine.Options{CacheSize: -1})}
	rows := make([]paperRow, len(reqs))
	for i, resp := range pool.RunRequests(context.Background(), reqs) {
		req := reqs[i]
		if resp.Err != nil {
			t.Fatalf("%s on %s with %s: %v", req.Label, req.Topo.Name, req.Compiler, resp.Err)
		}
		m := sim.Run(resp.Result.Schedule, req.Topo, sim.DefaultOptions())
		rows[i] = paperRow{
			App: req.Label, Topo: req.Topo.Name, Compiler: req.Compiler,
			Shuttles: resp.Result.Counts.Shuttles, Swaps: resp.Result.Counts.Swaps,
			Success: m.SuccessRate,
		}
	}
	return rows
}

func writePaperGolden(rows []paperRow) error {
	var b strings.Builder
	b.WriteString("# app topology compiler shuttles swaps success_rate\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %d %d %.17g\n", r.id(), r.Shuttles, r.Swaps, r.Success)
	}
	if err := os.MkdirAll(filepath.Dir(paperGolden), 0o755); err != nil {
		return err
	}
	return os.WriteFile(paperGolden, []byte(b.String()), 0o644)
}

func readPaperGolden() ([]paperRow, error) {
	f, err := os.Open(paperGolden)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []paperRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r paperRow
		if _, err := fmt.Sscan(line, &r.App, &r.Topo, &r.Compiler, &r.Shuttles, &r.Swaps, &r.Success); err != nil {
			return nil, fmt.Errorf("%s: %q: %w", paperGolden, line, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}
