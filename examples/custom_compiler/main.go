// Custom compiler: plug a new strategy into the engine's registry and
// serve it through the same CompileRequest API — caching, single-flight
// coalescing and portfolio racing included — without touching engine
// code. The example registers "sta-wide", an S-SYNC variant that pairs
// the STA first-level mapping with a widened lookahead window, races it
// against the default portfolio, and demonstrates that concurrent
// identical requests coalesce into a single compilation.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"ssync"
)

func main() {
	// A CompilerFunc is an ordinary function: it gets the full request
	// (circuit, device, config) and returns a compile result. Registered
	// names are process-wide and addressable from every Engine — and from
	// ssyncd's /v2 endpoints, had this been the daemon.
	err := ssync.RegisterCompiler("sta-wide",
		func(ctx context.Context, req ssync.CompileRequest) (*ssync.CompileResult, error) {
			cfg := ssync.DefaultCompileConfig()
			cfg.Mapping.Strategy = ssync.STAMapping
			cfg.LookaheadGates = 32 // double the default window
			return ssync.Compile(cfg, req.Circuit, req.Topo)
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered compilers:", ssync.Compilers())

	c := ssync.QFT(16)
	topo := ssync.GridDevice(2, 2, 8)
	ctx := context.Background()

	// The custom compiler is a first-class citizen of the request API.
	resp := ssync.Do(ctx, ssync.CompileRequest{Circuit: c, Topo: topo, Compiler: "sta-wide"})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	fmt.Printf("sta-wide: %d shuttles, %d swaps (key %.12s…)\n",
		resp.Result.Counts.Shuttles, resp.Result.Counts.Swaps, resp.Key)

	// Concurrent identical requests share one compilation: the engine
	// coalesces them in flight, so only the first does the work.
	eng := ssync.NewEngine(ssync.EngineOptions{})
	var wg sync.WaitGroup
	responses := make([]ssync.CompileResponse, 8)
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = eng.Do(ctx, ssync.CompileRequest{Circuit: c, Topo: topo, Compiler: "sta-wide"})
		}(i)
	}
	wg.Wait()
	coalesced, hits := 0, 0
	for _, r := range responses {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		if r.Coalesced {
			coalesced++
		}
		if r.CacheHit {
			hits++
		}
	}
	st := eng.Stats()
	fmt.Printf("8 concurrent identical requests: %d compiled, %d coalesced, %d cache hits\n",
		st.Compiled, coalesced, hits)

	// And it can join a portfolio race against the built-in entrants.
	variants := append(ssync.DefaultPortfolio(),
		ssync.PortfolioVariant{Name: "custom/sta-wide", Compiler: "sta-wide"})
	out, err := eng.Race(ctx, c, topo, variants, ssync.PortfolioOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("portfolio winner: %s (success %.3e)\n",
		out.Winner.Label, out.Metrics[out.WinnerIndex].SuccessRate)
}
