package sim

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"ssync/internal/circuit"
	"ssync/internal/schedule"
)

// Shared-reference verification. Verifying a compiled schedule needs two
// simulations: the source circuit evolved on a seeded witness input (the
// reference), and the schedule's logical gate stream replayed on the same
// input. The reference depends only on (source circuit, seed) — portfolio
// entrants, route variants and ablation sweeps all share it — so it is
// cached here and each caller pays only for its own replay.

// Reference is a verification reference for one (source circuit, seed)
// pair: the witness input state and the state the source circuit evolves
// it into. Immutable once built; safe for concurrent VerifySchedule.
type Reference struct {
	input  *State // seeded witness product state
	output *State // input evolved through the source circuit's basis gates
}

// NewReference simulates the verification reference for src under seed.
// Fails for non-unitary or oversized circuits, exactly as VerifySchedule
// does.
func NewReference(src *circuit.Circuit, seed int64) (*Reference, error) {
	if src.NumQubits > MaxStateQubits {
		return nil, fmt.Errorf("sim: %d qubits exceeds the dense simulator limit %d", src.NumQubits, MaxStateQubits)
	}
	rng := rand.New(rand.NewSource(seed))
	input, err := RandomProductState(src.NumQubits, rng)
	if err != nil {
		return nil, err
	}
	output := input.Clone()
	basis := src.DecomposeToBasis()
	for _, g := range basis.Gates {
		if g.Name == "measure" || g.Name == "reset" {
			return nil, fmt.Errorf("sim: VerifySchedule requires a unitary circuit (found %q)", g.Name)
		}
		if err := output.Apply(g); err != nil {
			return nil, err
		}
	}
	return &Reference{input: input, output: output}, nil
}

// NumQubits returns the reference's qubit count.
func (r *Reference) NumQubits() int { return r.input.n }

// bytes is the resident amplitude storage, for cache accounting.
func (r *Reference) bytes() int64 {
	return int64(len(r.input.amp)+len(r.output.amp)) * 16
}

// replayPool recycles the scratch states schedule replays run on, so a
// verify allocates nothing once a same-or-larger state has been through:
// copyFrom reuses the pooled backing array when it fits.
var replayPool = sync.Pool{New: func() any { return new(State) }}

// VerifySchedule replays sched's logical gate stream on the reference's
// witness input and checks the result matches the reference output up to
// global phase. The replay runs on a pooled scratch state — no 2^n-sized
// allocation per call in steady state.
func (r *Reference) VerifySchedule(sched *schedule.Schedule) error {
	if r.input.n != sched.NumQubits {
		return fmt.Errorf("sim: circuit has %d qubits, schedule %d", r.input.n, sched.NumQubits)
	}
	got := replayPool.Get().(*State)
	defer replayPool.Put(got)
	got.copyFrom(r.input)
	got.workers = 0
	for _, op := range sched.Ops {
		switch op.Kind {
		case schedule.Gate1Q, schedule.Gate2Q:
			g := circuit.Gate{Name: op.Name, Qubits: op.Qubits, Params: op.Params}
			if err := got.Apply(g); err != nil {
				return err
			}
		case schedule.Measure:
			return fmt.Errorf("sim: VerifySchedule requires a unitary schedule (found measure)")
		}
		// Transport, inserted SWAPs and barriers relocate ions but leave
		// logical states untouched — skipped, as in Schedule.LogicalGates.
	}
	if ov := Overlap(r.output, got); ov < 1-1e-7 {
		return fmt.Errorf("sim: schedule diverges from source circuit (overlap %.9f)", ov)
	}
	return nil
}

// refKey addresses a cached reference: the source circuit's digest
// (circuit.Digest) plus the witness seed.
type refKey struct {
	digest [sha256.Size]byte
	seed   int64
}

// refEntry is one cache slot. ready closes when the reference (or the
// error building it) is available; waiters block on it, giving
// single-flight population without holding the cache lock across a
// simulation.
type refEntry struct {
	key   refKey
	ready chan struct{}
	ref   *Reference
	err   error
	elem  *list.Element
}

// RefCache is a byte-bounded LRU of verification references with
// single-flight population: N concurrent verifies of the same source
// circuit simulate the reference once and share it.
type RefCache struct {
	mu       sync.Mutex
	entries  map[refKey]*refEntry
	order    *list.List // front = most recent; holds *refEntry
	maxBytes int64
	bytes    int64

	hits   atomic.Uint64
	misses atomic.Uint64
}

// DefaultRefCacheBytes bounds the process-wide SharedRefs cache: room
// for two max-size references (a 22-qubit reference is two 64 MiB
// states), plenty for the many small ones tests and mixed traffic hold.
const DefaultRefCacheBytes = 512 << 20

// SharedRefs is the process-wide reference cache the verify-statevec
// pass goes through, so every verifying pipeline in the process shares
// one pool of simulated references.
var SharedRefs = NewRefCache(DefaultRefCacheBytes)

// NewRefCache returns a reference cache holding at most maxBytes of
// amplitude data (<= 0 selects DefaultRefCacheBytes).
func NewRefCache(maxBytes int64) *RefCache {
	if maxBytes <= 0 {
		maxBytes = DefaultRefCacheBytes
	}
	return &RefCache{
		entries:  make(map[refKey]*refEntry),
		order:    list.New(),
		maxBytes: maxBytes,
	}
}

// Get returns the reference for (src, seed), simulating it at most once
// per cache lifetime no matter how many goroutines ask concurrently.
// Build errors are not cached; the next Get retries.
func (c *RefCache) Get(src *circuit.Circuit, seed int64) (*Reference, error) {
	k := refKey{src.Digest(), seed}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.ready
		return e.ref, e.err
	}
	e := &refEntry{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.mu.Unlock()
	c.misses.Add(1)

	e.ref, e.err = NewReference(src, seed)
	close(e.ready)

	c.mu.Lock()
	if e.err != nil {
		// Don't cache failures — only drop the entry if it is still ours
		// (a concurrent failure may already have been replaced).
		if c.entries[k] == e {
			delete(c.entries, k)
		}
	} else {
		e.elem = c.order.PushFront(e)
		c.bytes += e.ref.bytes()
		for c.bytes > c.maxBytes && c.order.Len() > 1 {
			back := c.order.Back()
			old := back.Value.(*refEntry)
			c.order.Remove(back)
			delete(c.entries, old.key)
			c.bytes -= old.ref.bytes()
		}
	}
	c.mu.Unlock()
	return e.ref, e.err
}

// Verify resolves the shared reference for (src, seed) and verifies
// sched against it. Drop-in for VerifySchedule when many schedules
// derive from one source circuit.
func (c *RefCache) Verify(src *circuit.Circuit, sched *schedule.Schedule, seed int64) error {
	if src.NumQubits != sched.NumQubits {
		return fmt.Errorf("sim: circuit has %d qubits, schedule %d", src.NumQubits, sched.NumQubits)
	}
	ref, err := c.Get(src, seed)
	if err != nil {
		return err
	}
	return ref.VerifySchedule(sched)
}

// RefCacheStats is a point-in-time view of a reference cache.
type RefCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Stats snapshots the cache's counters and occupancy.
func (c *RefCache) Stats() RefCacheStats {
	c.mu.Lock()
	entries, bytes := c.order.Len(), c.bytes
	c.mu.Unlock()
	return RefCacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: entries,
		Bytes:   bytes,
	}
}

// Stats is the simulator's process-wide counter snapshot, mirrored into
// engine stats, /v2/stats and the ssync_sim_* metric families.
type Stats struct {
	// ParallelApplies / SerialApplies count gate applications by
	// execution mode across every State in the process.
	ParallelApplies uint64 `json:"parallel_applies"`
	SerialApplies   uint64 `json:"serial_applies"`
	// Workers is the resolved process-default worker budget.
	Workers int `json:"workers"`
	// RefCache is the SharedRefs verification-reference cache view.
	RefCache RefCacheStats `json:"ref_cache"`
}

// Snapshot collects the process-wide simulator counters.
func Snapshot() Stats {
	return Stats{
		ParallelApplies: cParallelApplies.Load(),
		SerialApplies:   cSerialApplies.Load(),
		Workers:         DefaultWorkers(),
		RefCache:        SharedRefs.Stats(),
	}
}
