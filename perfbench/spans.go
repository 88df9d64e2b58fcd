package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"time"
)

// span is one timed interval: a server span read back from the flight
// recorder, or one the benchmark records around an in-process call.
type span struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
}

// selfTimes returns each span name's total self time in ms: a span's
// duration minus the union of the intervals its children cover within it.
func selfTimes(spans []span) map[string]float64 {
	children := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.Dur - coveredMs(s, children[s.ID])
	}
	return out
}

// coveredMs is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coveredMs(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	lo0, hi0 := parent.Start, parent.Start+parent.Dur
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, lo0), min(k.Start+k.Dur, hi0)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi float64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		default:
			curHi = max(curHi, v.hi)
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanLog records the benchmark's own spans in memory; dump writes them
// out once the run is over.
type spanLog struct {
	origin time.Time
	next   int
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// newID mints a span ID, so a parent's ID exists before its children end.
func (l *spanLog) newID() string {
	l.next++
	return strconv.Itoa(l.next)
}

// record adds the span id, which started at start and ends now.
func (l *spanLog) record(id, parent, name string, start time.Time) {
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: ms(start.Sub(l.origin)), Dur: ms(time.Since(start)),
	})
}

// time runs fn inside a new span named name under parent.
func (l *spanLog) time(parent, name string, fn func()) {
	id, start := l.newID(), time.Now()
	fn()
	l.record(id, parent, name, start)
}

// dump writes the spans as one JSON document.
func (l *spanLog) dump(path string) error {
	b, err := json.Marshal(map[string]any{"origin": l.origin, "spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
