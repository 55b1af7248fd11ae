package main

import (
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// The capl-front round reads the repository corpus relative to the
// repository root, where run.sh starts the benchmark.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func mustAnswers(t *testing.T) table {
	t.Helper()
	answers, err := loadAnswers()
	if err != nil {
		t.Fatal(err)
	}
	return answers
}

func mustBuild(t *testing.T, w workload, seed int64) *plan {
	t.Helper()
	answers := mustAnswers(t)
	p, err := w.build(seed, answers.kinds)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	answers.pin(p)
	return p
}

// TestInputsFollowSeed: the same seed gives byte-identical inputs, a
// different seed different ones.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := mustBuild(t, w, 1), mustBuild(t, w, 1), mustBuild(t, w, 2)
		if len(a.inputs) == 0 {
			t.Fatalf("%s: no generated inputs", w.name)
		}
		if !slices.Equal(a.inputs, b.inputs) {
			t.Errorf("%s: seed 1 built different inputs twice", w.name)
		}
		if slices.Equal(a.inputs, c.inputs) {
			t.Errorf("%s: seeds 1 and 2 built the same inputs", w.name)
		}
	}
}

// TestEveryKindHasAnAnswer: every job of every round is judged against
// a committed answer with a source.
func TestEveryKindHasAnAnswer(t *testing.T) {
	answers := mustAnswers(t).kinds
	for _, w := range workloads {
		for _, j := range mustBuild(t, w, 1).jobs {
			a, ok := answers[j.kind]
			if !ok || a.Source == "" {
				t.Errorf("%s: job %s has no sourced answer for kind %q", w.name, j.name, j.kind)
			}
		}
	}
}

// TestWrongAnswerIsReported: the oracle is not vacuous. A deliberately
// wrong expected verdict, an error and a panic each fail the job, make
// the run incorrect and are named in the report.
func TestWrongAnswerIsReported(t *testing.T) {
	w := workloads[0]
	p := mustBuild(t, w, 1)
	var target *job
	for i := range p.jobs {
		if p.jobs[i].kind == "corpus-ecu" {
			target = &p.jobs[i]
		}
	}
	if target == nil {
		t.Fatal("no corpus-ecu job")
	}
	if o := runJob(call{}, target); o.failed() {
		t.Fatalf("correct answer judged wrong: %s", describe(o))
	}
	target.want.Holds = []bool{false}
	o := runJob(call{}, target)
	if !o.failed() || o.known || !strings.Contains(o.mismatch, "holds") {
		t.Fatalf("wrong answer not reported: %+v", o)
	}
	erring := job{kind: "corpus-ecu", name: "erring", want: target.want,
		run: func(call) (observed, error) { return observed{}, errors.New("budget exceeded") }}
	panicking := job{kind: "corpus-ecu", name: "panicking", want: target.want,
		run: func(call) (observed, error) { panic("boom") }}
	for _, o := range []outcome{o, runJob(call{}, &erring), runJob(call{}, &panicking)} {
		if s := summarize([]outcome{o}); s.unexpected != 1 || s.failed != 1 {
			t.Errorf("%s: summary = %+v, want one unexpected failure", o.job.name, s)
		}
		if correct([]outcome{o}) {
			t.Errorf("%s: run judged correct", o.job.name)
		}
		var sb strings.Builder
		reportFailures([]outcome{o}, &sb)
		if !strings.Contains(sb.String(), o.job.name) {
			t.Errorf("failure report does not name the job:\n%s", sb.String())
		}
	}
}

// TestKnownDefectIsPinned: the known false divergence is excused only on
// the two schedules answers.json names and only as the divergence it
// names. Any other failure of those jobs, and the same failure of any
// other schedule, makes the run incorrect.
func TestKnownDefectIsPinned(t *testing.T) {
	p := mustBuild(t, workloads[2], 1)
	var pinned []string
	var other *job
	for i := range p.jobs {
		j := &p.jobs[i]
		if j.defect != nil {
			pinned = append(pinned, j.name)
		} else if j.kind == "conf-hardened" && other == nil {
			other = j
		}
	}
	want := []string{
		"conf-naive/naive seed=12 horizon=50000us ops=4",
		"conf-hardened/hardened seed=8709117376059157599 horizon=50000us ops=4",
	}
	if !slices.Equal(pinned, want) {
		t.Fatalf("pinned jobs = %q, want %q", pinned, want)
	}
	var hardened *job
	for i := range p.jobs {
		if p.jobs[i].name == want[1] {
			hardened = &p.jobs[i]
		}
	}
	diverge := func(at int) func(call) (observed, error) {
		return func(call) (observed, error) { return observed{Verdict: "diverges", FailedAt: at}, nil }
	}
	for _, tc := range []struct {
		j     job
		known bool
	}{
		{job{kind: hardened.kind, name: hardened.name, want: hardened.want, defect: hardened.defect, run: diverge(30)}, true},
		{job{kind: hardened.kind, name: hardened.name, want: hardened.want, defect: hardened.defect, run: diverge(31)}, false},
		{job{kind: hardened.kind, name: hardened.name, want: hardened.want, defect: hardened.defect,
			run: func(call) (observed, error) { return observed{}, errors.New("budget exceeded") }}, false},
		{job{kind: other.kind, name: other.name, want: other.want, run: diverge(30)}, false},
	} {
		o := runJob(call{}, &tc.j)
		if !o.failed() || o.known != tc.known || correct([]outcome{o}) != tc.known {
			t.Errorf("%s (%s): known=%v correct=%v, want %v", tc.j.name, describe(o), o.known, correct([]outcome{o}), tc.known)
		}
	}
}

// TestRoundsFinishUnderBudgets runs one round of every workload at the
// default seed: every job reaches a verdict within its budgets, and the
// only wrong verdicts are the documented known defect.
func TestRoundsFinishUnderBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's round")
	}
	for _, w := range workloads {
		p := mustBuild(t, w, 1)
		start := time.Now()
		for _, o := range runRound(call{}, p.jobs) {
			if o.failed() && !o.known {
				t.Errorf("%s: %s: %s", w.name, o.job.name, describe(o))
			}
		}
		t.Logf("%s: %d jobs in %v", w.name, len(p.jobs), time.Since(start).Round(time.Millisecond))
	}
}

// TestTracedRoundReportsEveryLayer runs one traced capl-front round
// with the OTA panel and checks every per-layer metric is measured.
func TestTracedRoundReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced round")
	}
	p := mustBuild(t, workloads[0], 1)
	c := call{tr: newTracer(), stats: newLayerStats()}
	rounds := runFor(c, p, 0, 1, func(c call) {
		if err := otaPanel(call{tr: c.tr, stats: c.stats, panel: true}); err != nil {
			t.Errorf("panel: %v", err)
		}
	})
	if len(c.tr.open) != 0 {
		t.Fatalf("%d spans left open", len(c.tr.open))
	}
	for _, m := range c.stats.perLayer() {
		if m.Value <= 0 && m.Name != "lts.cache_hit_ratio" {
			t.Errorf("%s = %v, want a measured value", m.Name, m.Value)
		}
	}
	jobs, _, total := c.tr.selfTimes()
	var sum time.Duration
	for _, d := range jobs {
		sum += d
	}
	if sum != total || total <= 0 {
		t.Errorf("job self times sum to %v, job spans to %v", sum, total)
	}
	if got := len(allOutcomes(rounds)); got != len(p.jobs) {
		t.Errorf("ran %d jobs, want %d", got, len(p.jobs))
	}
}

func TestTailPercentile(t *testing.T) {
	ds := make([]time.Duration, 200)
	for i := range ds {
		ds[i] = time.Duration(i + 1)
	}
	if v, beyond := tailPercentile(ds, 95); v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = (%v, %d), want (190, 10)", v, beyond)
	}
}

func TestJobTimeEstimators(t *testing.T) {
	ds := []time.Duration{9, 1, 4, 2, 100, 3, 5, 8}
	if got := interquartileMean(ds); got != 5 { // mean of 3, 4, 5, 8
		t.Errorf("interquartile mean = %v, want 5", got)
	}
	if got := hdMedian([]float64{5, 1, 3, 2, 4}); math.Abs(got-3) > 1e-9 {
		t.Errorf("Harrell-Davis median of 1..5 = %v, want 3", got)
	}
	// Between the two middle values, and far less moved by one extreme
	// value than a mean.
	xs := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 1000}
	if got := hdMedian(xs); got < 14 || got > 15.5 {
		t.Errorf("Harrell-Davis median = %v, want within [14, 15.5]", got)
	}
}
