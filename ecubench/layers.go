package main

import (
	"math"
	"time"

	"repro/internal/candb"
	"repro/internal/capl"
	"repro/internal/caplint"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/fdr"
	"repro/internal/lts"
	"repro/internal/refine"
	"repro/internal/translate"
)

// tally accumulates one per-layer quantity: calls, wall time,
// allocations and the unit the metric is normalised by (bytes, states,
// nodes, pairs, events, frames, queries).
type tally struct {
	calls  int64
	ns     int64
	allocs uint64
	bytes  uint64
	units  int64
	extra  int64 // a second count where a metric needs one
}

// layerStats holds the tallies of one traced run, keyed by metric
// family. Job tallies come from the calls a workload's jobs make; panel
// tallies from the OTA panel probe, used only where the jobs leave a
// family empty.
type layerStats struct {
	jobs, panel map[string]*tally
	// fresh holds the LTSs a job explored, whose transitions are
	// re-derived after the job, outside its time.
	fresh []explored
}

type explored struct {
	sem *csp.Semantics
	l   *lts.LTS
}

func newLayerStats() *layerStats {
	return &layerStats{jobs: map[string]*tally{}, panel: map[string]*tally{}}
}

// call is the handle a job uses to reach the program. With a nil tracer
// it calls straight through; traced, it records a span around every
// public call and adds the call's cost to the tallies.
type call struct {
	tr    *tracer
	stats *layerStats
	panel bool // tallies go to the panel set
}

func (c call) traced() bool { return c.tr != nil }

func (c call) add(family string, d time.Duration, allocs, bytes uint64, units, extra int64) {
	if c.tr == nil {
		return
	}
	set := c.stats.jobs
	if c.panel {
		set = c.stats.panel
	}
	t := set[family]
	if t == nil {
		t = &tally{}
		set[family] = t
	}
	t.calls++
	t.ns += int64(d)
	t.allocs += allocs
	t.bytes += bytes
	t.units += units
	t.extra += extra
}

// measure runs fn inside a span and returns the span's duration and
// allocations. Untraced it just runs fn.
func (c call) measure(name string, withMem bool, fn func()) (time.Duration, uint64, uint64) {
	if c.tr == nil {
		fn()
		return 0, 0, 0
	}
	id := c.tr.begin(name, withMem)
	fn()
	d := c.tr.end(id)
	sp := c.tr.spans[id]
	return d, sp.Allocs, sp.Bytes
}

func (c call) candbParse(src string) (db *candb.Database, err error) {
	d, a, b := c.measure("candb.Parse", false, func() { db, err = candb.Parse(src) })
	c.add("candb.parse", d, a, b, int64(len(src)), 0)
	return db, err
}

func (c call) caplParse(src string) (p *capl.Program, err error) {
	d, a, b := c.measure("capl.Parse", true, func() { p, err = capl.Parse(src) })
	c.add("capl.parse", d, a, b, int64(len(src)), 0)
	return p, err
}

func (c call) caplintAnalyze(p *capl.Program, opts caplint.Options, srcLen int) (diags []caplint.Diagnostic) {
	d, a, b := c.measure("caplint.Analyze", true, func() { diags = caplint.Analyze(p, opts) })
	c.add("caplint.analyze", d, a, b, int64(srcLen), 0)
	return diags
}

func (c call) translate(p *capl.Program, opts translate.Options, srcLen int) (res *translate.Result, err error) {
	d, a, b := c.measure("translate.Translate", false, func() { res, err = translate.Translate(p, opts) })
	out := 0
	if res != nil {
		out = len(res.Text)
	}
	c.add("translate", d, a, b, int64(srcLen), int64(out))
	return res, err
}

func (c call) cspmLoad(src string) (m *cspm.Model, err error) {
	d, a, b := c.measure("cspm.Load", true, func() { m, err = cspm.Load(src) })
	c.add("cspm.load", d, a, b, int64(len(src)), 0)
	return m, err
}

// checkAssert runs one assertion through fdr.RunAssertBudget. Traced,
// it first fills the budget's cache with every exploration and
// normalisation the check will ask for, under the same state bound, so
// the fdr span that follows is the product search (or, for deadlock and
// divergence checks, the scan of the explored LTS) alone.
func (c call) checkAssert(m *cspm.Model, a cspm.ResolvedAssert, bgt fdr.Budget) (res refine.Result, err error) {
	if c.tr != nil {
		if err := c.prefill(m, a, bgt); err != nil {
			return refine.Result{}, err
		}
	}
	d, _, _ := c.measure("fdr.RunAssertBudget", false, func() { res, err = fdr.RunAssertBudget(m, a, bgt) })
	if err == nil {
		if a.Spec != nil {
			c.add("refine.product", d, 0, 0, int64(res.ProductStates), 0)
		}
		if !res.Holds {
			c.add("refine.cex", 0, 0, 0, int64(len(res.Counterexample)), 0)
		}
	}
	return res, err
}

// prefill explores (and for refinements normalises) the processes of
// one assertion through the budget's cache, timing each fresh
// exploration and re-deriving its transitions to split semantics from
// interning and storage.
func (c call) prefill(m *cspm.Model, a cspm.ResolvedAssert, bgt fdr.Budget) error {
	sem := csp.NewSemantics(m.Env, m.Ctx)
	opts := lts.Options{MaxStates: bgt.MaxStates, Workers: bgt.Workers, MaxDuration: bgt.MaxDuration}
	procs := []csp.Process{a.Impl}
	if a.Spec != nil {
		procs = []csp.Process{a.Spec, a.Impl}
	}
	for i, p := range procs {
		_, missesBefore := bgt.Cache.Stats()
		var l *lts.LTS
		var err error
		d, allocs, bytes := c.measure("lts.Cache.Explore", true, func() { l, err = bgt.Cache.Explore(sem, p, opts) })
		if err != nil {
			return err
		}
		_, missesAfter := bgt.Cache.Stats()
		fresh := missesAfter > missesBefore
		var freshN int64
		if fresh {
			freshN = 1
			c.add("lts.explore", d, allocs, bytes, int64(l.NumStates()), 0)
			c.stats.fresh = append(c.stats.fresh, explored{sem, l})
		}
		c.add("lts.cache", 0, 0, 0, 1, freshN)
		if a.Spec != nil && i == 0 && !(a.Kind == cspm.AssertFailRef && specDiverges(l)) {
			var n *lts.Normalized
			d, _, _ := c.measure("lts.Cache.Normalize", false, func() { n = bgt.Cache.Normalize(l) })
			c.add("lts.normalize", d, 0, 0, int64(n.NumNodes()), 0)
		}
	}
	return nil
}

// specDiverges mirrors the checker's refusal to normalise a divergent
// stable-failures specification.
func specDiverges(l *lts.LTS) bool {
	d, _ := l.HasTauCycle()
	return d
}

// rederive splits the exploration of every LTS explored since the last
// call into semantics and interning plus storage. The job explored on
// the default number of workers; the split compares one sequential
// exploration of the same process with one sequential re-derivation of
// csp.Semantics.Transitions over its states, so both sides run on one
// goroutine.
func (c call) rederive() {
	for _, e := range c.stats.fresh {
		n := len(e.l.Procs)
		var err error
		d, _, _ := c.measure("lts.Explore(Workers=1)", false, func() {
			_, err = lts.Explore(e.sem, e.l.Procs[e.l.Init], lts.Options{MaxStates: n + 1, Workers: 1})
		})
		if err != nil {
			continue
		}
		c.add("lts.explore_seq", d, 0, 0, int64(n), 0)
		d, _, _ = c.measure("csp.Semantics.Transitions", false, func() {
			for _, p := range e.l.Procs {
				if _, err = e.sem.Transitions(p); err != nil {
					return
				}
			}
		})
		if err == nil {
			c.add("csp.transitions", d, 0, 0, int64(n), 0)
		}
	}
	c.stats.fresh = c.stats.fresh[:0]
}

// metric is one named per-layer figure with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// perLayer derives the per-layer metrics from the tallies: job tallies
// where the workload's jobs produced any, the panel's otherwise.
func (s *layerStats) perLayer() []metric {
	get := func(family string) tally {
		if t := s.jobs[family]; t != nil && t.units > 0 {
			return *t
		}
		if t := s.panel[family]; t != nil {
			return *t
		}
		return tally{}
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	nsPer := func(f string) float64 { t := get(f); return per(float64(t.ns), float64(t.units)) }
	allocsPer := func(f string) float64 { t := get(f); return per(float64(t.allocs), float64(t.units)) }
	meanUnits := func(f string) float64 { t := get(f); return per(float64(t.units), float64(t.calls)) }

	explore, seq, trans := get("lts.explore"), get("lts.explore_seq"), get("csp.transitions")
	cache, lm := get("lts.cache"), get("learn.membership")
	return []metric{
		{"candb.parse_ns_per_byte", "ns/B", nsPer("candb.parse")},
		{"capl.parse_ns_per_byte", "ns/B", nsPer("capl.parse")},
		{"capl.parse_allocs_per_byte", "allocs/B", allocsPer("capl.parse")},
		{"caplint.analyze_ns_per_byte", "ns/B", nsPer("caplint.analyze")},
		{"caplint.allocs_per_byte", "allocs/B", allocsPer("caplint.analyze")},
		{"translate.ns_per_byte", "ns/B", nsPer("translate")},
		{"translate.out_bytes_per_in_byte", "B/B", per(float64(get("translate").extra), float64(get("translate").units))},
		{"cspm.load_ns_per_byte", "ns/B", nsPer("cspm.load")},
		{"cspm.load_allocs_per_byte", "allocs/B", allocsPer("cspm.load")},
		{"lts.explore_ns_per_state", "ns/state", nsPer("lts.explore")},
		{"lts.allocs_per_state", "allocs/state", allocsPer("lts.explore")},
		{"lts.bytes_per_state", "B/state", per(float64(explore.bytes), float64(explore.units))},
		{"lts.states_per_s", "1/s", per(float64(explore.units), float64(explore.ns)/1e9)},
		{"csp.transitions_ns_per_state", "ns/state", nsPer("csp.transitions")},
		{"lts.intern_store_ns_per_state", "ns/state",
			per(float64(seq.ns), float64(seq.units)) - per(float64(trans.ns), float64(trans.units))},
		{"lts.normalize_ns_per_node", "ns/node", nsPer("lts.normalize")},
		{"lts.cache_hit_ratio", "fraction", 1 - per(float64(cache.extra), float64(cache.units))},
		{"refine.product_ns_per_pair", "ns/pair", nsPer("refine.product")},
		{"refine.product_pairs", "count", meanUnits("refine.product")},
		{"refine.cex_len", "events", meanUnits("refine.cex")},
		{"refine.accepts_ns_per_event", "ns/event", nsPer("refine.accepts")},
		{"refine.accepts_states_per_event", "states/event", per(float64(get("refine.accepts").extra), float64(get("refine.accepts").units))},
		{"ota.build_observed_ms", "ms", per(float64(get("ota.build_observed").ns)/1e6, float64(get("ota.build_observed").calls))},
		{"canoe.sim_ns_per_frame", "ns/frame", nsPer("canoe.sim")},
		{"canbus.frames_per_job", "count", meanUnits("canbus.frames")},
		{"learn.membership_us", "us", per(float64(lm.ns)/1e3, float64(lm.units))},
		{"learn.membership_queries", "count", meanUnits("learn.queries")},
		{"learn.cache_hit_ratio", "fraction", per(float64(get("learn.queries").extra), float64(get("learn.queries").extra+get("learn.queries").units))},
		{"learn.equivalence_words", "count", meanUnits("learn.equivalence")},
	}
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
