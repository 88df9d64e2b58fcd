package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"time"
)

// quality is the paper's per-compilation outcome as the server rendered
// it: raw JSON bytes, so checks compare exactly what a caller sees.
type quality struct {
	Shuttles, Swaps, Success json.RawMessage
}

// checker validates replies and holds the reference quality of every
// request ID, taken from the first reply seen for it (the warm-up pass).
type checker struct {
	refs      map[string]quality
	attempted int
	failed    int
	firstErr  error
}

func newChecker() *checker { return &checker{refs: map[string]quality{}} }

// check validates one reply: status 200, quality fields present and
// byte-equal to the reference for the request's ID, and, for verify
// requests, a passed equivalence check (a failed one is a 422).
func (c *checker) check(r request, rep reply, sendErr error) bool {
	c.attempted++
	err := sendErr
	if err == nil {
		err = c.validate(r, rep)
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s (%s form): %w", r.ID, r.Form, err)
		}
		return false
	}
	return true
}

func (c *checker) validate(r request, rep reply) error {
	if rep.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rep.Status, bytes.TrimSpace(rep.Body))
	}
	var body struct {
		Shuttles    json.RawMessage `json:"shuttles"`
		Swaps       json.RawMessage `json:"swaps"`
		SuccessRate json.RawMessage `json:"success_rate"`
		Pipeline    []string        `json:"pipeline"`
	}
	if err := json.Unmarshal(rep.Body, &body); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if body.Shuttles == nil || body.Swaps == nil || body.SuccessRate == nil {
		return fmt.Errorf("reply lacks a quality field: %s", rep.Body)
	}
	if r.Verify && !slices.Contains(body.Pipeline, "verify-statevec") {
		return fmt.Errorf("reply did not run verify-statevec: %s", rep.Body)
	}
	got := quality{body.Shuttles, body.Swaps, body.SuccessRate}
	ref, ok := c.refs[r.ID]
	if !ok {
		c.refs[r.ID] = got
		return nil
	}
	if !bytes.Equal(got.Shuttles, ref.Shuttles) || !bytes.Equal(got.Swaps, ref.Swaps) || !bytes.Equal(got.Success, ref.Success) {
		return fmt.Errorf("quality changed: shuttles/swaps/success %s/%s/%s, first reply %s/%s/%s",
			got.Shuttles, got.Swaps, got.Success, ref.Shuttles, ref.Swaps, ref.Success)
	}
	return nil
}

// qualityTotals sums shuttles and swaps and takes the geometric mean of
// the success rate over the given distinct IDs.
func (c *checker) qualityTotals(ids []string) (shuttles, swaps, successGeomean float64, err error) {
	var logSum float64
	for _, id := range ids {
		q, ok := c.refs[id]
		if !ok {
			return 0, 0, 0, fmt.Errorf("no successful reply for %s", id)
		}
		var sh, sw int
		var succ float64
		if err := json.Unmarshal(q.Shuttles, &sh); err != nil {
			return 0, 0, 0, err
		}
		if err := json.Unmarshal(q.Swaps, &sw); err != nil {
			return 0, 0, 0, err
		}
		if err := json.Unmarshal(q.Success, &succ); err != nil {
			return 0, 0, 0, err
		}
		if succ <= 0 {
			return 0, 0, 0, fmt.Errorf("%s: success rate %v is not positive", id, succ)
		}
		shuttles += float64(sh)
		swaps += float64(sw)
		logSum += math.Log(succ)
	}
	return shuttles, swaps, math.Exp(logSum / float64(len(ids))), nil
}

// sample is one measured request: its round trip, or a failure.
type sample struct {
	d  time.Duration
	ok bool
}

// window is the outcome of a run of measured passes.
type window struct {
	samples []sample
	elapsed time.Duration
}

// completed counts the successful requests.
func (w window) completed() int {
	n := 0
	for _, s := range w.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// percentileMs is the nearest-rank q-quantile of the round trips in ms.
// A failed request counts as +Inf: it misses any latency limit.
func (w window) percentileMs(q float64) float64 {
	v := make([]float64, len(w.samples))
	for i, s := range w.samples {
		v[i] = math.Inf(1)
		if s.ok {
			v[i] = float64(s.d) / float64(time.Millisecond)
		}
	}
	sort.Float64s(v)
	rank := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(rank, 0)]
}

// runPasses sends every pass's requests in order over d's one
// connection, each after the previous reply (a closed loop), and checks
// every reply. after, when non-nil, runs after each successful reply,
// outside the timed interval; its time is excluded from elapsed.
func runPasses(d *daemon, passes [][]request, chk *checker, after func(reply) error) (window, error) {
	var w window
	for _, list := range passes {
		for _, r := range list {
			t0 := time.Now()
			rep, err := d.post(r.Body)
			dur := time.Since(t0)
			ok := chk.check(r, rep, err)
			w.samples = append(w.samples, sample{dur, ok})
			w.elapsed += dur
			if after != nil && ok {
				if err := after(rep); err != nil {
					return w, err
				}
			}
		}
	}
	return w, nil
}
