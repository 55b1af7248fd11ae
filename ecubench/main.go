// Command ecubench is the repository benchmark: one closed-loop client
// that runs a seeded round of verification jobs through the CAPL ->
// CSPm -> refinement-check chain, checks every verdict against the
// committed known-answer table, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of its output.
//
// Usage, from the repository root:
//
//	bash ecubench/run.sh --workload capl-front --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start for setup_s.
var processStart = time.Now()

// job is one unit of closed-loop work: its inputs are fixed when the
// round is built, run takes them to every verdict.
type job struct {
	kind string // key of the known-answer table
	name string
	want answer
	// defect, when set, is the verdict a pinned known defect of the
	// program gives this job today (see answers.json).
	defect *answer
	run    func(c call) (observed, error)
	// probe, when set, runs after the job in traced rounds, outside the
	// job's time, to measure layers the job's own calls hide.
	probe func(c call)
}

// plan is a built round plus the generated inputs behind it.
type plan struct {
	jobs   []job
	inputs []string
}

// workload builds a seeded round. tail is the percentile job_tail_ms
// reports, fixed so that every run reports the same one and chosen to
// fall inside one job's repeated samples; minRounds rounds leave at
// least ten samples beyond it on every workload. capl-front's jobs take
// about a millisecond, so above p95 the host's scheduling stalls, not
// the program, decide the figure.
type workload struct {
	name  string
	build func(seed int64, answers map[string]answer) (*plan, error)
	tail  float64
}

var workloads = []workload{
	{"capl-front", buildCAPLFront, 95},
	{"state-space", buildStateSpace, 90},
	{"bus-soak", buildBusSoak, 95},
}

// minRounds is the least number of timed rounds of an untraced run.
const minRounds = 7

// outcome is one executed job.
type outcome struct {
	job      *job
	dur      time.Duration
	err      error
	mismatch string
	known    bool // the failure is exactly the job's pinned known defect
}

func (o outcome) failed() bool { return o.err != nil || o.mismatch != "" }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: capl-front, state-space or bus-soak")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds (whole rounds run until it is reached)")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: ecubench --workload capl-front|state-space|bus-soak --seed N --seconds S --trace 0|1")
		return 2
	}
	traceOut := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
	answers, err := loadAnswers()
	if err != nil {
		fmt.Fprintln(stderr, "ecubench:", err)
		return 1
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, traceOut, answers, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "ecubench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "ecubench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setups is how often set-up builds the round and runs the warm-up
// round; setup_s counts the median of them.
const setups = 3

// result is the last line of the output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs set-up, the warm-up round and the timed rounds of one
// workload and returns the result line. Human-readable detail goes to
// out first.
//
// Set-up, process start to the first timed job, is input generation and
// model building plus the warm-up round. It runs setups times, each on a
// freshly built round, and setup_s is the process's start-up plus the
// median of them; the first round built is the one timed.
func measure(w *workload, seed int64, dur time.Duration, traced bool, traceOut string, answers table, out io.Writer) (*result, error) {
	startup := time.Since(processStart)
	var times []time.Duration
	var p *plan
	var warmFailures []string // the warm-up's unexpected failures
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		b, err := w.build(seed, answers.kinds)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		answers.pin(b)
		for _, o := range runRound(call{}, b.jobs) {
			if o.failed() && !o.known {
				warmFailures = append(warmFailures, o.job.name+": "+describe(o))
			}
		}
		times = append(times, time.Since(t0))
		if p == nil {
			p = b
		}
	}
	setup := startup + median(times)
	warmOK := len(warmFailures) == 0

	fmt.Fprintf(out, "ecubench workload=%s seed=%d jobs/round=%d %s\n", w.name, seed, len(p.jobs), hostLine())
	for _, f := range warmFailures {
		fmt.Fprintln(out, "warm-up FAILED", f)
	}

	if !traced {
		rounds := runFor(call{}, p, dur, minRounds, nil)
		return endToEnd(w, warmOK, rounds, setup, out), nil
	}

	// Traced run: untraced rounds for half the time give the baseline
	// throughput, traced rounds for the other half the spans.
	baseRounds := runFor(call{}, p, dur/2, 1, nil)
	tr := newTracer()
	stats := newLayerStats()
	rounds := runFor(call{tr: tr, stats: stats}, p, dur/2, 1, func(c call) {
		id := c.tr.root("probe.panel")
		err := otaPanel(call{tr: c.tr, stats: c.stats, panel: true})
		c.tr.unwind(id)
		if err != nil {
			fmt.Fprintln(out, "panel probe:", err)
		}
	})
	if err := tr.writeJSONL(traceOut); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return perLayer(tr, stats, warmOK, baseRounds, rounds, traceOut, out), nil
}

// round is one timed round: its outcomes and its wall time, probe time
// excluded.
type round struct {
	outs []outcome
	wall time.Duration
}

// throughput is the median over rounds of verdicts per second: a
// transient slowdown of the host moves it less than a ratio over the
// whole run.
func throughput(rounds []round) float64 {
	rates := make([]float64, len(rounds))
	for i, r := range rounds {
		rates[i] = float64(len(summarize(r.outs).all)) / r.wall.Seconds()
	}
	return median(rates)
}

// runFor repeats whole rounds until d has passed and at least min
// rounds ran. Traced, the jobs' probes and then afterFirst run in the
// first round only, since every round repeats the same jobs; all probe
// time is left out of the measured time.
func runFor(c call, p *plan, d time.Duration, min int, afterFirst func(call)) []round {
	var rounds []round
	var wall time.Duration
	for len(rounds) < min || wall < d {
		first := len(rounds) == 0
		t0 := time.Now()
		var probes time.Duration
		var outs []outcome
		for i := range p.jobs {
			j := &p.jobs[i]
			outs = append(outs, runJob(c, j))
			if c.traced() {
				p0 := time.Now()
				runProbe(c, j, first)
				probes += time.Since(p0)
			}
		}
		if c.traced() && first && afterFirst != nil {
			p0 := time.Now()
			afterFirst(c)
			probes += time.Since(p0)
		}
		r := round{outs: outs, wall: time.Since(t0) - probes}
		wall += r.wall
		rounds = append(rounds, r)
	}
	return rounds
}

// allOutcomes concatenates the outcomes of the rounds.
func allOutcomes(rounds []round) []outcome {
	var outs []outcome
	for _, r := range rounds {
		outs = append(outs, r.outs...)
	}
	return outs
}

// runRound runs every job of a round once.
func runRound(c call, jobs []job) []outcome {
	outs := make([]outcome, 0, len(jobs))
	for i := range jobs {
		outs = append(outs, runJob(c, &jobs[i]))
	}
	return outs
}

// runJob runs one job and judges it. A panic fails the job, not the run.
// A wrong verdict is the known defect only when it is exactly the one
// pinned to the job.
func runJob(c call, j *job) (o outcome) {
	o.job = j
	id := c.tr.root("job." + j.kind)
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
		c.tr.unwind(id)
		o.dur = time.Since(t0)
	}()
	got, err := j.run(c)
	if err != nil {
		o.err = err
		return o
	}
	o.mismatch = judge(j.want, got)
	o.known = o.mismatch != "" && j.defect != nil && judge(*j.defect, got) == ""
	return o
}

// runProbe re-derives the transitions of what the job explored and,
// withJobProbe, runs the job's probe, containing any panic.
func runProbe(c call, j *job, withJobProbe bool) {
	id := c.tr.root("probe." + j.kind)
	defer func() {
		_ = recover() // a failing probe loses its figures, not the run
		c.tr.unwind(id)
	}()
	c.rederive()
	if withJobProbe && j.probe != nil {
		j.probe(c)
	}
}

func describe(o outcome) string {
	if o.err != nil {
		return "error: " + firstLine(o.err.Error())
	}
	if o.known {
		return "known defect: " + o.mismatch
	}
	return "wrong verdict: " + o.mismatch
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// summary tallies a run's outcomes; all holds the times of the jobs that
// reached a verdict. unexpected counts the failed jobs (a wrong verdict,
// an error, a budget trip or a panic) other than pinned known defects:
// any of them makes the run incorrect.
type summary struct {
	attempted, failed, known, unexpected, passed, refuted int
	all                                                   []time.Duration
}

func summarize(outs []outcome) summary {
	var s summary
	for _, o := range outs {
		s.attempted++
		if o.failed() {
			s.failed++
			if o.known {
				s.known++
			} else {
				s.unexpected++
			}
		}
		if o.err != nil {
			continue
		}
		s.all = append(s.all, o.dur)
		if o.mismatch != "" {
			continue
		}
		if o.job.want.Class == "pass" {
			s.passed++
		} else {
			s.refuted++
		}
	}
	return s
}

// endToEnd builds the untraced result line. A median job time is the
// Harrell-Davis median over the round's jobs of each job's interquartile
// mean over the rounds; the tail is taken over every job run.
//
// On a shared host the speed can be bimodal: on the 2-vCPU reference
// host the same job, doing the same work, took up to twice as long in
// some rounds as in others. A job's plain
// median over a few rounds then jumps between the two speeds, and a
// plain median over jobs jumps between neighbouring jobs; the
// interquartile mean moves in proportion to the share of slow rounds,
// and the Harrell-Davis estimate blends the jobs around the middle.
func endToEnd(w *workload, warmOK bool, rounds []round, setup time.Duration, out io.Writer) *result {
	outs := allOutcomes(rounds)
	s := summarize(outs)
	tail, beyond := tailPercentile(s.all, w.tail)
	p50 := func(class string) float64 {
		byJob := map[*job][]time.Duration{}
		for _, o := range outs {
			if o.err == nil && (class == "" || o.mismatch == "" && o.job.want.Class == class) {
				byJob[o.job] = append(byJob[o.job], o.dur)
			}
		}
		var means []float64
		for _, ds := range byJob {
			means = append(means, ms(interquartileMean(ds)))
		}
		return hdMedian(means)
	}
	m := []metric{
		{"setup_s", "s", setup.Seconds()},
		{"jobs_per_s", "1/s", throughput(rounds)},
		{"job_p50_ms", "ms", p50("")},
		{"job_tail_ms", "ms", ms(tail)},
		{"pass_p50_ms", "ms", p50("pass")},
		{"fail_p50_ms", "ms", p50("fail")},
		{"peak_rss_mb", "MB", peakRSSMB()},
	}
	fmt.Fprintf(out, "rounds=%d jobs=%d measured=%.2fs pass-verdicts=%d fail-verdicts=%d\n",
		len(rounds), s.attempted, totalWall(rounds).Seconds(), s.passed, s.refuted)
	fmt.Fprintf(out, "job_tail_ms is p%g over %d samples (%d beyond it)\n", w.tail, len(s.all), beyond)
	for _, x := range m {
		fmt.Fprintf(out, "%-12s %12.4f %s\n", x.Name, finite(x.Value), x.Unit)
	}
	fmt.Fprintf(out, "%-12s %12.4f fraction (%d of %d jobs failed; %d of them the known defect)\n",
		"error_ratio", float64(s.failed)/float64(s.attempted), s.failed, s.attempted, s.known)
	reportJobs(outs, out)
	reportFailures(outs, out)
	return &result{Correct: warmOK && correct(outs), Attempted: s.attempted, Failed: s.failed, Metrics: toJSON(m)}
}

// reportJobs prints the interquartile mean time of every job in the round.
func reportJobs(outs []outcome, out io.Writer) {
	byJob := map[*job][]time.Duration{}
	var order []*job
	for _, o := range outs {
		if byJob[o.job] == nil {
			order = append(order, o.job)
		}
		byJob[o.job] = append(byJob[o.job], o.dur)
	}
	for _, j := range order {
		fmt.Fprintf(out, "  job %-60s %10.3f ms interquartile mean of %d\n", j.name, ms(interquartileMean(byJob[j])), len(byJob[j]))
	}
}

func totalWall(rounds []round) time.Duration {
	var d time.Duration
	for _, r := range rounds {
		d += r.wall
	}
	return d
}

// perLayer builds the traced result line and prints the per-layer
// tables.
func perLayer(tr *tracer, stats *layerStats, warmOK bool, baseRounds, rounds []round, traceOut string, out io.Writer) *result {
	outs := allOutcomes(rounds)
	s := summarize(outs)
	baseJPS, jps := throughput(baseRounds), throughput(rounds)
	overhead := 1 - jps/baseJPS

	// Shares are of the time spent inside the program: the benchmark's
	// own self time in a job, most of it the tracer's allocation counts,
	// is left out.
	jobSelf, probeSelf, jobTotal := tr.selfTimes()
	share := func(layers ...string) float64 {
		var d time.Duration
		for _, l := range layers {
			d += jobSelf[l]
		}
		return float64(d) / float64(jobTotal-jobSelf["(benchmark)"])
	}
	m := stats.perLayer()
	m = append(m,
		metric{"frontend.share", "fraction", share("candb", "capl", "caplint", "translate", "cspm")},
		metric{"explore.share", "fraction", share("lts", "csp")},
		metric{"check.share", "fraction", share("refine", "fdr")},
		metric{"trace.overhead", "fraction", overhead},
	)
	fmt.Fprintf(out, "traced rounds=%d jobs=%d measured=%.2fs spans=%d -> %s\n", len(rounds), s.attempted, totalWall(rounds).Seconds(), len(tr.spans), traceOut)
	fmt.Fprintf(out, "tracing overhead: jobs_per_s %.3f traced vs %.3f untraced (%.1f%%)\n", jps, baseJPS, 100*overhead)
	writeSelfTable(out, "job spans by layer", jobSelf)
	writeSelfTable(out, "probe spans by layer", probeSelf)
	for _, x := range m {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", x.Name, finite(x.Value), x.Unit)
	}
	reportFailures(outs, out)
	base := allOutcomes(baseRounds)
	sa := summarize(append(base, outs...))
	return &result{Correct: warmOK && correct(base, outs), Attempted: sa.attempted, Failed: sa.failed, Metrics: toJSON(m)}
}

// correct reports whether no job failed other than by its pinned known
// defect.
func correct(sets ...[]outcome) bool {
	for _, outs := range sets {
		if summarize(outs).unexpected > 0 {
			return false
		}
	}
	return true
}

// reportFailures names every failed job once, with its count.
func reportFailures(outs []outcome, out io.Writer) {
	counts := map[string]int{}
	var order []string
	for _, o := range outs {
		if !o.failed() {
			continue
		}
		key := o.job.name + ": " + describe(o)
		if counts[key] == 0 {
			order = append(order, key)
		}
		counts[key]++
	}
	for _, k := range order {
		fmt.Fprintf(out, "FAILED x%d %s\n", counts[k], k)
	}
}

func toJSON(m []metric) map[string]metricJSON {
	out := make(map[string]metricJSON, len(m))
	for _, x := range m {
		out[x.Name] = metricJSON{Value: finite(x.Value), Unit: x.Unit}
	}
	return out
}

// median of xs; 0 for none.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interquartileMean is the mean of the middle half of ds: with n
// values, the n/4 smallest and the n/4 largest are left out.
func interquartileMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	q := len(s) / 4
	var sum time.Duration
	for _, d := range s[q : len(s)-q] {
		sum += d
	}
	return sum / time.Duration(len(s)-2*q)
}

// hdMedian is the Harrell-Davis estimate of the median of xs: a mean of
// the order statistics weighted by the Beta((n+1)/2, (n+1)/2) mass of
// each one's share of [0, 1]. 0 for none.
func hdMedian(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return median(xs)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	a := float64(n+1) / 2
	lg, _ := math.Lgamma(a)
	lg2, _ := math.Lgamma(2 * a)
	logBeta := 2*lg - lg2
	const steps = 256 // midpoint rule per order statistic
	var est, total float64
	for i, x := range s {
		lo, h := float64(i)/float64(n), 1/float64(n*steps)
		var w float64
		for k := 0; k < steps; k++ {
			t := lo + (float64(k)+0.5)*h
			w += math.Exp((a-1)*(math.Log(t)+math.Log1p(-t))-logBeta) * h
		}
		est += w * x
		total += w
	}
	return est / total
}

// tailPercentile returns the nearest-rank value at percentile p and the
// number of samples beyond it.
func tailPercentile(ds []time.Duration, p float64) (time.Duration, int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	rank := max(1, int(math.Ceil(p/100*float64(n))))
	return s[rank-1], n - rank
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// hostLine records where a result was measured.
func hostLine() string {
	host, _ := os.Hostname()
	return fmt.Sprintf("host=%s %s/%s go=%s GOMAXPROCS=%d NumCPU=%d",
		host, runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// errNoInputs reports a missing repository input file.
var errNoInputs = errors.New("run from the repository root")
