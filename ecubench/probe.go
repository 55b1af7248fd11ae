package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/canbus"
	"repro/internal/canoe"
	"repro/internal/caplint"
	"repro/internal/conformance"
	"repro/internal/csp"
	"repro/internal/fdr"
	"repro/internal/learn"
	"repro/internal/lts"
	"repro/internal/ota"
	"repro/internal/refine"
	"repro/internal/translate"
)

// variantSources returns the CAPL programs the conformance harness
// simulates for a variant and the reference it checks them against.
func variantSources(v conformance.Variant) (ecu, vmg string, ref ota.LossyVariant) {
	switch v {
	case conformance.VariantHardened:
		return ota.HardenedECUSource, ota.HardenedVMGSource, ota.HardenedGateway
	case conformance.VariantFlawed:
		return ota.FlawedECUSource, ota.VMGSource, ota.NaiveGateway
	}
	return ota.ECUSource, ota.VMGSource, ota.NaiveGateway
}

// simulate runs the gateway pair unperturbed on the simulated bus up to
// the horizon and returns the monitor trace.
func (c call) simulate(ecuSrc, vmgSrc string, horizon canbus.Time) (frames []canoe.TimedFrame, err error) {
	d, _, _ := c.measure("canoe.Simulation", false, func() {
		sim := canoe.NewSimulation(canbus.Config{ErrorConfinement: true})
		if _, err = sim.AddNode("VMG", vmgSrc); err != nil {
			return
		}
		if _, err = sim.AddNode("ECU", ecuSrc); err != nil {
			return
		}
		if err = sim.Start(); err != nil {
			return
		}
		var done bool
		if done, err = sim.RunLimited(horizon, 300_000); err != nil {
			return
		}
		if !done {
			err = fmt.Errorf("simulation event budget exhausted before %dus", int64(horizon))
			return
		}
		frames = sim.Trace()
	})
	if err == nil {
		c.add("canoe.sim", d, 0, 0, int64(len(frames)), 0)
	}
	return frames, err
}

// acceptsProbe re-runs a conformance variant unperturbed, projects the
// monitor trace, builds the observed-bus reference at the given fault
// budgets and asks refine.AcceptsTrace whether the trace is a model
// trace. Unperturbed correct gateways must conform and the flawed one
// must not.
func acceptsProbe(c call, v conformance.Variant, budgets ota.ChannelBudgets, horizon canbus.Time) error {
	ecuSrc, vmgSrc, ref := variantSources(v)
	frames, err := c.simulate(ecuSrc, vmgSrc, horizon)
	if err != nil {
		return err
	}
	if c.panel {
		c.add("canbus.frames", 0, 0, 0, int64(len(frames)), 0)
	}
	proj, err := conformance.NewOTAProjector()
	if err != nil {
		return err
	}
	var trace csp.Trace
	c.measure("conformance.Projector.Trace", false, func() { trace, err = proj.Trace(frames) })
	if err != nil {
		return err
	}
	var sys *ota.System
	d, _, _ := c.measure("ota.BuildObserved", false, func() { sys, err = ota.BuildObserved(ota.ObservedConfigFor(ref, budgets)) })
	if err != nil {
		return err
	}
	c.add("ota.build_observed", d, 0, 0, 1, 0)
	checker := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
	checker.Cache = lts.NewCache()
	checker.MaxDuration = 20 * time.Second
	var tc refine.TraceCheck
	d, _, _ = c.measure("refine.AcceptsTrace", false, func() { tc, err = checker.AcceptsTrace(csp.Call(ota.ObservedProcess), trace) })
	if err != nil {
		return err
	}
	c.add("refine.accepts", d, 0, 0, int64(len(trace)), int64(tc.States))
	if want := v != conformance.VariantFlawed; tc.Accepted != want {
		return fmt.Errorf("unperturbed %s run: accepted=%v, want %v", v, tc.Accepted, want)
	}
	return nil
}

// timedTeacher times every membership query the learner sends to the
// simulated-bus teacher.
type timedTeacher struct {
	learn.Teacher
	ns, n atomic.Int64
}

func (t *timedTeacher) Membership(w csp.Trace) (bool, error) {
	t0 := time.Now()
	ok, err := t.Teacher.Membership(w)
	t.ns.Add(int64(time.Since(t0)))
	t.n.Add(1)
	return ok, err
}

// learnProbe runs L* against a variant's simulated-bus teacher on one
// worker and records the per-query cost and, withStats, the query
// counts.
func learnProbe(c call, v learn.Variant, seed int64, withStats bool) error {
	teacher, err := learn.NewVariantTeacher(learn.CampaignConfig{Seed: seed, Profile: learn.ProfileNone}, v)
	if err != nil {
		return err
	}
	tt := &timedTeacher{Teacher: teacher}
	var stats learn.Stats
	c.measure("learn.Learn", false, func() {
		_, stats, err = learn.Learn(learn.Config{Teacher: tt, Seed: seed, Workers: 1, MaxQueries: 50_000})
	})
	if err != nil {
		return err
	}
	c.add("learn.membership", time.Duration(tt.ns.Load()), 0, 0, tt.n.Load(), 0)
	if withStats {
		c.addLearnStats(stats)
	}
	return nil
}

func (c call) addLearnStats(s learn.Stats) {
	c.add("learn.queries", 0, 0, 0, s.MembershipQueries, s.CacheHits)
	c.add("learn.equivalence", 0, 0, 0, s.EquivalenceWords, 0)
}

// otaPanel measures every layer once on the paper's OTA case study: the
// front end over the ECU and VMG programs, the Table III checks of the
// flawed system, the observed-bus reference with trace membership, and
// L* on the naive ECU. Its figures stand in for layers a workload's
// own jobs never reach.
func otaPanel(c call) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	db, err := c.candbParse(ota.DBCSource)
	if err != nil {
		return err
	}
	for _, node := range []struct{ name, src, in, out string }{
		{"ECU", ota.ECUSource, "send", "rec"},
		{"VMG", ota.VMGSource, "rec", "send"},
	} {
		prog, err := c.caplParse(node.src)
		if err != nil {
			return err
		}
		c.caplintAnalyze(prog, caplint.Options{File: node.name, DB: db}, len(node.src))
		opts := translate.Options{NodeName: node.name, InChannel: node.in, OutChannel: node.out,
			MessageRename: ota.MessageRename, IncludeTimers: true, Strict: true, DB: db}
		if _, err := c.translate(prog, opts, len(node.src)); err != nil {
			return err
		}
	}
	sys, err := ota.BuildFlawed()
	if err != nil {
		return err
	}
	m, err := c.cspmLoad(sys.Source)
	if err != nil {
		return err
	}
	bgt := fdr.Budget{MaxStates: 200_000, MaxDuration: 20 * time.Second, Cache: lts.NewCache()}
	for _, a := range m.Asserts {
		if _, err := c.checkAssert(m, a, bgt); err != nil {
			return err
		}
	}
	c.rederive()
	if err := acceptsProbe(c, conformance.VariantNaive, ota.ChannelBudgets{}, 50*canbus.Millisecond); err != nil {
		return err
	}
	return learnProbe(c, learn.VariantNaive, 1, true)
}
