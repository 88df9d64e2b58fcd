package exp

import (
	"fmt"
	"strings"
	"time"

	"ssync/internal/baseline"
	"ssync/internal/core"
	"ssync/internal/device"
	"ssync/internal/noise"
	"ssync/internal/sim"
	"ssync/internal/workloads"
)

// Fig13Row is one application × gate-implementation success rate.
type Fig13Row struct {
	App     string
	Model   noise.GateModel
	Success float64
}

// Fig13 compares FM, AM1, AM2 and PM gate implementations on a G-2x3
// device with trap capacity 16 across the five large benchmarks. The
// schedule is compiled once per app (scheduling is model-independent);
// each model re-simulates it.
func Fig13(opt Options) (string, []Fig13Row, error) {
	apps := []string{"Adder_32", "QFT_64", "BV_64", "QAOA_64", "ALT_64"}
	capacity := 16
	if opt.Quick {
		apps = []string{"Adder_4", "QFT_12", "BV_12"}
		capacity = 6
	}
	models := []noise.GateModel{noise.FM, noise.AM1, noise.AM2, noise.PM}
	var rows []Fig13Row
	for _, app := range apps {
		c, err := workloads.Build(app)
		if err != nil {
			return "", nil, err
		}
		topo := device.Grid(2, 3, capacity)
		if topo.TotalCapacity() < c.NumQubits {
			continue
		}
		res, err := core.Compile(core.DefaultConfig(), c, topo)
		if err != nil {
			return "", nil, err
		}
		for _, model := range models {
			m := simulateWithModel(res, topo, model)
			rows = append(rows, Fig13Row{App: app, Model: model, Success: m.SuccessRate})
		}
	}
	var b strings.Builder
	b.WriteString("Fig. 13 — Success rate by gate implementation (G-2x3, capacity 16)\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s\n", "application", "FM", "AM1", "AM2", "PM")
	for i := 0; i < len(rows); i += len(models) {
		fmt.Fprintf(&b, "%-14s", rows[i].App)
		byModel := map[noise.GateModel]float64{}
		for j := 0; j < len(models); j++ {
			byModel[rows[i+j].Model] = rows[i+j].Success
		}
		for _, m := range []noise.GateModel{noise.FM, noise.AM1, noise.AM2, noise.PM} {
			fmt.Fprintf(&b, " %12.3e", byModel[m])
		}
		b.WriteByte('\n')
	}
	return b.String(), rows, nil
}

// Fig14Row is one sensitivity measurement.
type Fig14Row struct {
	App     string
	Size    int
	Param   string // "r100", "d0.001", ...
	Success float64
}

// Fig14 sweeps the shuttle/inner weight ratio r and the decay rate δ on a
// G-2x2 device with capacity 20 (Sec. 5.5).
func Fig14(opt Options) (string, []Fig14Row, error) {
	families := []string{"adder", "qft", "qaoa"}
	sizes := []int{50, 60, 70}
	capacity := 20
	if opt.Quick {
		families = []string{"qft"}
		sizes = []int{12}
		capacity = 5
	}
	ratios := []float64{100, 1000, 10000, 100000}
	decays := []float64{0, 0.01, 0.001, 0.0001}
	var rows []Fig14Row
	for _, fam := range families {
		for _, size := range sizes {
			c, err := workloads.BySize(fam, size)
			if err != nil {
				return "", nil, err
			}
			topo := device.Grid(2, 2, capacity)
			if topo.TotalCapacity() < c.NumQubits {
				continue
			}
			for _, r := range ratios {
				cfg := core.DefaultConfig()
				cfg.InnerWeight = cfg.ShuttleWeight / r
				res, err := core.Compile(cfg, c, topo)
				if err != nil {
					return "", nil, err
				}
				m := sim.Run(res.Schedule, topo, sim.DefaultOptions())
				rows = append(rows, Fig14Row{
					App: fam, Size: size, Param: fmt.Sprintf("r%g", r), Success: m.SuccessRate,
				})
			}
			for _, d := range decays {
				cfg := core.DefaultConfig()
				cfg.Delta = d
				res, err := core.Compile(cfg, c, topo)
				if err != nil {
					return "", nil, err
				}
				m := sim.Run(res.Schedule, topo, sim.DefaultOptions())
				rows = append(rows, Fig14Row{
					App: fam, Size: size, Param: fmt.Sprintf("d%g", d), Success: m.SuccessRate,
				})
			}
		}
	}
	var b strings.Builder
	b.WriteString("Fig. 14 — Hyperparameter sensitivity (G-2x2, capacity 20)\n")
	fmt.Fprintf(&b, "%-7s %5s %-10s %13s\n", "app", "size", "param", "success")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %5d %-10s %13.3e\n", r.App, r.Size, r.Param, r.Success)
	}
	return b.String(), rows, nil
}

// Fig15Row is one compilation-time measurement.
type Fig15Row struct {
	App      string
	Size     int
	Compiler string
	Compile  time.Duration
}

// Fig15 measures compilation time against application size on a G-2x2
// device with capacity 20: S-SYNC vs the Murali baseline on QFT, plus
// S-SYNC across all benchmark families.
func Fig15(opt Options) (string, []Fig15Row, error) {
	sizes := []int{50, 55, 60, 65, 70}
	capacity := 20
	families := []string{"qft", "adder", "bv", "qaoa", "alt"}
	if opt.Quick {
		sizes = []int{10, 14}
		capacity = 5
		families = []string{"qft", "bv"}
	}
	var rows []Fig15Row
	topoFor := func() *device.Topology { return device.Grid(2, 2, capacity) }
	// Left panel: QFT, S-SYNC vs Murali.
	for _, size := range sizes {
		c, err := workloads.BySize("qft", size)
		if err != nil {
			return "", nil, err
		}
		topo := topoFor()
		if topo.TotalCapacity() < c.NumQubits {
			continue
		}
		mur, err := baseline.CompileMurali(c, topo)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, Fig15Row{App: "qft", Size: size, Compiler: Murali, Compile: mur.CompileTime})
		ss, err := core.Compile(core.DefaultConfig(), c, topo)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, Fig15Row{App: "qft", Size: size, Compiler: SSync, Compile: ss.CompileTime})
	}
	// Right panel: every family under S-SYNC.
	for _, fam := range families {
		if fam == "qft" {
			continue // already measured
		}
		for _, size := range sizes {
			c, err := workloads.BySize(fam, size)
			if err != nil {
				return "", nil, err
			}
			topo := topoFor()
			if topo.TotalCapacity() < c.NumQubits {
				continue
			}
			ss, err := core.Compile(core.DefaultConfig(), c, topo)
			if err != nil {
				return "", nil, err
			}
			rows = append(rows, Fig15Row{App: fam, Size: size, Compiler: SSync, Compile: ss.CompileTime})
		}
	}
	var b strings.Builder
	b.WriteString("Fig. 15 — Compilation time vs application size (G-2x2, capacity 20)\n")
	fmt.Fprintf(&b, "%-7s %5s %-8s %12s\n", "app", "size", "compiler", "compile (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %5d %-8s %12.4f\n", r.App, r.Size, r.Compiler, r.Compile.Seconds())
	}
	return b.String(), rows, nil
}

// Fig16Row is one optimality-analysis measurement.
type Fig16Row struct {
	App      string
	Scenario string // "ideal", "perfect-shuttle", "perfect-swap", "ssync"
	Success  float64
}

// Fig16Scenarios lists the idealisation ladder of the optimality study.
var Fig16Scenarios = []string{"ideal", "perfect-shuttle", "perfect-swap", "ssync"}

// Fig16 evaluates the optimality gap of S-SYNC on a G-2x2 device with
// capacity 20: the same compiled schedule simulated under ideal (free
// transport and SWAPs), perfect-shuttle (free transport), perfect-SWAP
// (free SWAP gates) and realistic assumptions.
func Fig16(opt Options) (string, []Fig16Row, error) {
	apps := []string{"BV_64", "Adder_32", "QAOA_64", "ALT_64", "QFT_64"}
	capacity := 20
	if opt.Quick {
		apps = []string{"BV_12", "Adder_4", "QFT_12"}
		capacity = 6
	}
	var rows []Fig16Row
	for _, app := range apps {
		c, err := workloads.Build(app)
		if err != nil {
			return "", nil, err
		}
		topo := device.Grid(2, 2, capacity)
		if topo.TotalCapacity() < c.NumQubits {
			continue
		}
		res, err := core.Compile(core.DefaultConfig(), c, topo)
		if err != nil {
			return "", nil, err
		}
		for _, scen := range Fig16Scenarios {
			o := sim.DefaultOptions()
			switch scen {
			case "ideal":
				o.PerfectShuttle, o.PerfectSwap = true, true
			case "perfect-shuttle":
				o.PerfectShuttle = true
			case "perfect-swap":
				o.PerfectSwap = true
			}
			m := sim.Run(res.Schedule, topo, o)
			rows = append(rows, Fig16Row{App: app, Scenario: scen, Success: m.SuccessRate})
		}
	}
	var b strings.Builder
	b.WriteString("Fig. 16 — Optimality analysis (G-2x2, capacity 20)\n")
	fmt.Fprintf(&b, "%-14s %16s %16s %16s %16s\n", "application", "ideal", "perfect shuttle", "perfect SWAP", "S-SYNC")
	for i := 0; i < len(rows); i += len(Fig16Scenarios) {
		fmt.Fprintf(&b, "%-14s", rows[i].App)
		for j := range Fig16Scenarios {
			fmt.Fprintf(&b, " %16.3e", rows[i+j].Success)
		}
		b.WriteByte('\n')
	}
	return b.String(), rows, nil
}
