package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"ssync/internal/qasm"
	"ssync/internal/workloads"
)

// request is one generated /v2/compile call.
type request struct {
	// ID names the compilation the request asks for, independent of its
	// wire form and of the verify seed: requests with one ID must return
	// identical quality fields.
	ID string
	// Form is "name" (Table 2 benchmark name) or "qasm" (inline program).
	Form string
	// Verify marks requests whose pipeline ends in verify-statevec.
	Verify bool
	// Body is the exact JSON document sent.
	Body []byte
}

// wireRequest is the subset of the /v2/compile schema the workloads use.
type wireRequest struct {
	Benchmark string     `json:"benchmark,omitempty"`
	QASM      string     `json:"qasm,omitempty"`
	Topology  string     `json:"topology"`
	Capacity  int        `json:"capacity,omitempty"`
	Compiler  string     `json:"compiler,omitempty"`
	Pipeline  []wirePass `json:"pipeline,omitempty"`
}

type wirePass struct {
	Name    string          `json:"name"`
	Options json.RawMessage `json:"options,omitempty"`
}

// gridCell is one application × topology panel of S-SYNC Figs. 8–10.
type gridCell struct{ App, Topo string }

// paperGrid lists the 27 Figs. 8–10 panels (device.PaperCapacity
// capacities, which the server applies when capacity is omitted).
func paperGrid() []gridCell {
	apps := []struct {
		app   string
		topos []string
	}{
		{"ALT_64", []string{"S-4", "G-2x2", "G-2x3", "G-3x3"}},
		{"Adder_32", []string{"S-4", "L-4", "G-2x2", "G-2x3", "G-3x3"}},
		{"BV_64", []string{"S-4", "L-6", "G-2x3", "G-3x3"}},
		{"QAOA_64", []string{"S-4", "L-4", "L-6", "G-2x2", "G-2x3", "G-3x3"}},
		{"QFT_24", []string{"S-4", "L-6", "G-2x2", "G-2x3", "G-3x3"}},
		{"QFT_64", []string{"S-4", "G-2x2", "G-3x3"}},
	}
	var cells []gridCell
	for _, a := range apps {
		for _, t := range a.topos {
			cells = append(cells, gridCell{a.app, t})
		}
	}
	return cells
}

// gridCompilers are the four compilers each grid cell is compiled with,
// in the fixed order they are sent within a cell.
var gridCompilers = []string{"murali", "dai", "ssync", "ssync-annealed"}

// verifySources are the ≤16-qubit Table 2 programs of verify-shared:
// small enough for dense state-vector verification, and at 14+ qubits
// large enough that the simulator's parallel gate application engages.
var verifySources = []string{"QFT_14", "Adder_6", "BV_15", "QAOA_14"}

// verifyDevices are verify-shared's topologies. Their capacities are set
// well below the paper's so that every program spans several traps and
// routing has shuttles and swaps to verify.
var verifyDevices = []struct {
	Topo     string
	Capacity int
}{{"G-2x2", 5}, {"L-4", 6}}

var verifyRoutes = []string{"route-ssync", "route-murali", "route-dai"}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types marshal unconditionally
	}
	return b
}

// shuffled returns a permutation of 0..n-1 drawn from the workload seed
// and the index of the server process that sends it.
func shuffled(n int, seed uint64, process int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	r := rand.New(rand.NewPCG(seed, 0x5eed_9e37_79b9_7f4a+uint64(process)))
	r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// hotHitsList is the 108 grid requests, each once by name and once as
// inline QASM, in the seeded order of one server process.
func hotHitsList(seed uint64, process int) ([]request, error) {
	var all []request
	qasmOf := map[string]string{}
	for _, cell := range paperGrid() {
		src, ok := qasmOf[cell.App]
		if !ok {
			c, err := workloads.Build(cell.App)
			if err != nil {
				return nil, err
			}
			src = qasm.Write(c)
			qasmOf[cell.App] = src
		}
		for _, comp := range gridCompilers {
			id := cell.App + "/" + cell.Topo + "/" + comp
			all = append(all,
				request{ID: id, Form: "name", Body: mustJSON(wireRequest{Benchmark: cell.App, Topology: cell.Topo, Compiler: comp})},
				request{ID: id, Form: "qasm", Body: mustJSON(wireRequest{QASM: src, Topology: cell.Topo, Compiler: comp})})
		}
	}
	out := make([]request, len(all))
	for i, j := range shuffled(len(all), seed, process) {
		out[i] = all[j]
	}
	return out, nil
}

// gridColdList is the 108 grid requests by name, cell-major: the cell
// order of one server process is seeded, the compilers follow in a fixed
// order within each cell.
func gridColdList(seed uint64, process int) []request {
	cells := paperGrid()
	var out []request
	for _, i := range shuffled(len(cells), seed, process) {
		cell := cells[i]
		for _, comp := range gridCompilers {
			out = append(out, request{
				ID:   cell.App + "/" + cell.Topo + "/" + comp,
				Form: "name",
				Body: mustJSON(wireRequest{Benchmark: cell.App, Topology: cell.Topo, Compiler: comp}),
			})
		}
	}
	return out
}

// verifyPassSeed is the verify-statevec seed of one pass; pass 0 is the
// warm-up pass. Nonzero, so the pass never falls back to its default.
func verifyPassSeed(seed uint64, pass int) int64 {
	r := rand.New(rand.NewPCG(seed, 0x7e51_f000_0000_0000+uint64(pass)))
	return r.Int64N(1<<40) + 1
}

// verifyList is one pass of verify-shared: every source × device × route
// with the pass's verify seed, in the seeded order of one server process.
func verifyList(seed uint64, process, pass int) []request {
	vseed := verifyPassSeed(seed, pass)
	var all []request
	for _, src := range verifySources {
		for _, dev := range verifyDevices {
			for _, route := range verifyRoutes {
				all = append(all, request{
					ID:     fmt.Sprintf("%s/%s:%d/%s", src, dev.Topo, dev.Capacity, route),
					Form:   "name",
					Verify: true,
					Body: mustJSON(wireRequest{
						Benchmark: src, Topology: dev.Topo, Capacity: dev.Capacity,
						Pipeline: []wirePass{
							{Name: "decompose-basis"},
							{Name: "place-greedy"},
							{Name: route},
							{Name: "verify-statevec", Options: mustJSON(map[string]int64{"seed": vseed})},
						},
					}),
				})
			}
		}
	}
	out := make([]request, len(all))
	for i, j := range shuffled(len(all), seed, process) {
		out[i] = all[j]
	}
	return out
}

// distinctIDs returns the sorted distinct request IDs of list.
func distinctIDs(list []request) []string {
	seen := map[string]bool{}
	var ids []string
	for _, r := range list {
		if !seen[r.ID] {
			seen[r.ID] = true
			ids = append(ids, r.ID)
		}
	}
	sort.Strings(ids)
	return ids
}
