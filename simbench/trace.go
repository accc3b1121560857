package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"time"
)

// span is one timed call into the simulator: its name, start and end
// relative to the tracer's epoch, and the index of the span that
// enclosed it (-1 for none).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer records spans around the benchmark's calls into the simulator's
// packages. Spans stay in memory until the run ends. A tracer that is off
// calls straight through and records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int // stack of unfinished spans
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// do runs f inside a span called name.
func (t *tracer) do(name string, f func() error) error {
	if !t.on {
		return f()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	err := f()
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	return err
}

// dur is a span's duration.
func (s span) dur() time.Duration { return s.end - s.start }

// children sums, for each span name, the duration of the direct children
// of span id.
func (t *tracer) children(id int) (byName map[string]time.Duration, total time.Duration) {
	byName = map[string]time.Duration{}
	for _, s := range t.spans[id+1:] {
		if s.start >= t.spans[id].end {
			break
		}
		if s.parent == id {
			byName[s.name] += s.dur()
			total += s.dur()
		}
	}
	return byName, total
}

// summary writes each span name's count and total time, in name order.
func (t *tracer) summary(w io.Writer) {
	type agg struct {
		n int
		d time.Duration
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.d += s.dur()
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "span %-28s n=%-4d total=%.1fms\n", n, by[n].n, float64(by[n].d)/1e6)
	}
}

// traced runs f, under a CPU profile folded into h when on is set.
func traced(on bool, h *hostSplit, f func() error) error {
	if !on {
		return f()
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	h.add(samples)
	return nil
}

// hostSplit accumulates profiled host time by owner, plus the inclusive
// time of the simulator entry points the benchmark cannot wrap in spans
// itself (figure-regen reaches them through experiments).
type hostSplit struct {
	byOwner   map[string]int64
	inclusive map[string]int64
	total     int64
}

// entryPoints name the inclusive-time buckets and the functions each
// covers.
var entryPoints = map[string][]string{
	"core.New":        {"repro/internal/core.New", "repro/internal/core.NewApache"},
	"core.Checkpoint": {"repro/internal/core.(*Simulator).Checkpoint"},
	"core.RestoreInto": {"repro/internal/core.(*Simulator).RestoreInto", "repro/internal/core.Restore",
		"repro/internal/checkpoint.ReadFile"},
	"core.Run":     {"repro/internal/core.(*Simulator).Run", "repro/internal/core.(*Simulator).RunChecked"},
	"core.Audit":   {"repro/internal/core.(*Simulator).Audit"},
	"report.Take":  {"repro/internal/report.Take"},
	"report.Delta": {"repro/internal/report.Delta"},
}

func newHostSplit() *hostSplit {
	return &hostSplit{byOwner: map[string]int64{}, inclusive: map[string]int64{}}
}

func (h *hostSplit) add(samples []sample) {
	for _, s := range samples {
		h.byOwner[owner(s.stack)] += s.ns
		h.total += s.ns
		for name, fns := range entryPoints {
			if onStack(s.stack, fns...) {
				h.inclusive[name] += s.ns
			}
		}
	}
}

// pct is an owner's share of all profiled time, in percent.
func (h *hostSplit) pct(owner string) float64 {
	if h.total == 0 {
		return 0
	}
	return 100 * float64(h.byOwner[owner]) / float64(h.total)
}
