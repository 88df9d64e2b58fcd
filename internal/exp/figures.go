package exp

import (
	"fmt"
	"sort"
	"strings"

	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/mapping"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// FormatComparison renders the Figs. 8/9/10 grid as aligned text: one row
// per (app, topo) with the three compilers' values of the chosen metric.
func FormatComparison(cells []Cell, metric string) string {
	type key struct{ app, topo string }
	rows := map[key]map[string]Cell{}
	var order []key
	for _, c := range cells {
		k := key{c.App, c.Topo}
		if rows[k] == nil {
			rows[k] = map[string]Cell{}
			order = append(order, k)
		}
		rows[k][c.Compiler] = c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-7s %12s %12s %12s\n", "application", "topo", "Murali", "Dai", "This Work")
	for _, k := range order {
		fmt.Fprintf(&b, "%-14s %-7s", k.app, k.topo)
		for _, comp := range Compilers {
			c := rows[k][comp]
			switch metric {
			case "shuttles":
				fmt.Fprintf(&b, " %12d", c.Shuttles)
			case "swaps":
				fmt.Fprintf(&b, " %12d", c.Swaps)
			case "success":
				fmt.Fprintf(&b, " %12.3e", c.Success)
			case "time":
				fmt.Fprintf(&b, " %12.3e", c.ExecTime)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig8 regenerates the shuttle-count comparison.
func Fig8(opt Options) (string, []Cell, error) {
	cells, err := Comparison(opt)
	if err != nil {
		return "", nil, err
	}
	return "Fig. 8 — Number of shuttles (lower is better)\n" +
		FormatComparison(cells, "shuttles"), cells, nil
}

// Fig9 regenerates the SWAP-count comparison.
func Fig9(opt Options) (string, []Cell, error) {
	cells, err := Comparison(opt)
	if err != nil {
		return "", nil, err
	}
	return "Fig. 9 — Number of SWAP gates (lower is better)\n" +
		FormatComparison(cells, "swaps"), cells, nil
}

// Fig10 regenerates the success-rate comparison (FM gates).
func Fig10(opt Options) (string, []Cell, error) {
	cells, err := Comparison(opt)
	if err != nil {
		return "", nil, err
	}
	return "Fig. 10 — Success rate (higher is better)\n" +
		FormatComparison(cells, "success"), cells, nil
}

// Fig11Row is one point of the topology/capacity study.
type Fig11Row struct {
	App      string
	Topo     string
	Capacity int // total device capacity
	Success  float64
	ExecTime float64
}

// Fig11 sweeps 7 topologies × total trap capacity for QFT, BV, Adder and
// the Heisenberg simulation, reporting success rate and execution time
// under S-SYNC.
func Fig11(opt Options) (string, []Fig11Row, error) {
	topos := []string{"L-6", "G-2x3", "S-6", "L-4", "G-2x2", "S-4", "G-3x3"}
	apps := []string{"QFT_64", "BV_64", "Adder_32", "Heisenberg_48"}
	totals := []int{96, 108, 120, 132, 144}
	if opt.Quick {
		topos = []string{"L-4", "G-2x2", "S-4"}
		apps = []string{"QFT_12", "BV_12", "Adder_4", "Heisenberg_8"}
		totals = []int{20, 28}
	}
	var rows []Fig11Row
	for _, app := range apps {
		c, err := workloads.Build(app)
		if err != nil {
			return "", nil, err
		}
		for _, tn := range topos {
			for _, total := range totals {
				topo, err := device.ByName(tn, 1)
				if err != nil {
					return "", nil, err
				}
				cap := (total + topo.NumTraps() - 1) / topo.NumTraps()
				topo, err = device.ByName(tn, cap)
				if err != nil {
					return "", nil, err
				}
				if topo.TotalCapacity() < c.NumQubits {
					continue
				}
				res, err := core.Compile(core.DefaultConfig(), c, topo)
				if err != nil {
					return "", nil, err
				}
				m := sim.Run(res.Schedule, topo, sim.DefaultOptions())
				rows = append(rows, Fig11Row{
					App: app, Topo: tn, Capacity: topo.TotalCapacity(),
					Success: m.SuccessRate, ExecTime: m.ExecutionTime,
				})
			}
		}
	}
	var b strings.Builder
	b.WriteString("Fig. 11 — Topology and trap capacity study (S-SYNC)\n")
	fmt.Fprintf(&b, "%-14s %-7s %9s %13s %15s\n", "application", "topo", "capacity", "success", "exec time (µs)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-7s %9d %13.3e %15.3e\n", r.App, r.Topo, r.Capacity, r.Success, r.ExecTime)
	}
	return b.String(), rows, nil
}

// Fig12Row is one point of the initial-mapping study.
type Fig12Row struct {
	App      string
	Size     int
	Mapping  mapping.Strategy
	Shuttles int
	Swaps    int
	ExecTime float64
	Success  float64
}

// Fig12 compares gathering, even-divided and STA initial mappings on a
// G-2x3 device while sweeping application size (Adder and QFT families).
func Fig12(opt Options) (string, []Fig12Row, error) {
	families := []string{"adder", "qft"}
	sizes := []int{50, 60, 70, 80, 90}
	capacity := 17
	if opt.Quick {
		sizes = []int{12, 16}
		capacity = 5
	}
	strategies := []mapping.Strategy{mapping.Gathering, mapping.EvenDivided, mapping.STA}
	var rows []Fig12Row
	for _, fam := range families {
		for _, size := range sizes {
			c, err := workloads.BySize(fam, size)
			if err != nil {
				return "", nil, err
			}
			topo := device.Grid(2, 3, capacity)
			if topo.TotalCapacity() < c.NumQubits {
				continue
			}
			for _, strat := range strategies {
				res, err := ssyncWithMapping(strat, c, topo)
				if err != nil {
					return "", nil, err
				}
				m := sim.Run(res.Schedule, topo, sim.DefaultOptions())
				rows = append(rows, Fig12Row{
					App: fam, Size: size, Mapping: strat,
					Shuttles: res.Counts.Shuttles, Swaps: res.Counts.Swaps,
					ExecTime: m.ExecutionTime, Success: m.SuccessRate,
				})
			}
		}
	}
	var b strings.Builder
	b.WriteString("Fig. 12 — Initial mapping study on G-2x3 (S-SYNC)\n")
	fmt.Fprintf(&b, "%-7s %5s %-13s %9s %6s %13s %13s\n",
		"app", "size", "mapping", "shuttles", "swaps", "exec (µs)", "success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %5d %-13s %9d %6d %13.3e %13.3e\n",
			r.App, r.Size, r.Mapping, r.Shuttles, r.Swaps, r.ExecTime, r.Success)
	}
	return b.String(), rows, nil
}

// SortCellsByApp orders cells deterministically for reporting.
func SortCellsByApp(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].App != cells[j].App {
			return cells[i].App < cells[j].App
		}
		if cells[i].Topo != cells[j].Topo {
			return cells[i].Topo < cells[j].Topo
		}
		return cells[i].Compiler < cells[j].Compiler
	})
}
