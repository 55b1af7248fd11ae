package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Job and probe
// roots are spans too ("job.<kind>", "probe.<kind>"); every span of one
// job carries that job's id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory for one traced run. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	mem   []runtime.MemStats // allocation baselines of the open spans
	job   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one. withMem also records
// the allocations made until the matching end.
func (t *tracer) begin(name string, withMem bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: t.job, Name: name})
	t.open = append(t.open, id)
	var ms runtime.MemStats
	if withMem {
		runtime.ReadMemStats(&ms)
	}
	t.mem = append(t.mem, ms)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

// end closes span id, which must be the innermost open span, and
// returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	n := len(t.open) - 1
	if n < 0 || t.open[n] != id {
		panic(fmt.Sprintf("tracer: span %d closed out of order", id))
	}
	sp := &t.spans[id]
	sp.End = now
	if base := t.mem[n]; base.Mallocs != 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sp.Allocs = ms.Mallocs - base.Mallocs
		sp.Bytes = ms.TotalAlloc - base.TotalAlloc
	}
	t.open = t.open[:n]
	t.mem = t.mem[:n]
	return time.Duration(sp.End - sp.Start)
}

// unwind closes every span still open above id, then id itself: the
// cleanup after a panic inside a job or probe.
func (t *tracer) unwind(id int) {
	if t == nil {
		return
	}
	for len(t.open) > 0 {
		last := t.open[len(t.open)-1]
		t.end(last)
		if last == id {
			return
		}
	}
}

// root opens the top-level span of a job or of its probe. A new job id
// starts with every "job." root.
func (t *tracer) root(name string) int {
	if t == nil {
		return -1
	}
	if strings.HasPrefix(name, "job.") {
		t.job++
	}
	return t.begin(name, false)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span name to its layer: the module before the first
// dot ("lts.Cache.Explore" -> "lts").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part its
// child spans cover, separately for spans under job roots and under
// probe roots. It also returns the summed duration of the job roots.
func (t *tracer) selfTimes() (jobs, probes map[string]time.Duration, jobTotal time.Duration) {
	jobs, probes = map[string]time.Duration{}, map[string]time.Duration{}
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	rootOf := func(i int) string {
		for t.spans[i].Parent >= 0 {
			i = t.spans[i].Parent
		}
		return t.spans[i].Name
	}
	for i, sp := range t.spans {
		self := time.Duration(sp.End - sp.Start - child[i])
		root := rootOf(i)
		switch {
		case strings.HasPrefix(root, "job."):
			if sp.Parent < 0 {
				jobTotal += time.Duration(sp.End - sp.Start)
				jobs["(benchmark)"] += self
			} else {
				jobs[layerOf(sp.Name)] += self
			}
		case sp.Parent >= 0:
			probes[layerOf(sp.Name)] += self
		}
	}
	return jobs, probes, jobTotal
}

// writeSelfTable prints a per-layer self-time table, largest first.
func writeSelfTable(w io.Writer, title string, self map[string]time.Duration) {
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		total += d
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "%s (self time, total %.1f ms)\n", title, ms(total))
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "  %-14s %10.1f ms %6.1f%%\n", l, ms(self[l]), 100*share)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
