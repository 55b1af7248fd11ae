package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/caplint"
	"repro/internal/cspm"
	"repro/internal/fdr"
	"repro/internal/lts"
	"repro/internal/ota"
	"repro/internal/refine"
	"repro/internal/translate"
)

// Message identifiers of generated programs: responses outrank stimuli
// on the bus.
const (
	respBaseID = 0x110
	stimBaseID = 0x210
)

// handlerBands are the program sizes of the capl-front round, in
// message handlers: from a few to tens. Sizes are fixed per slot so
// every seed gets the same spread; the seed fills in the programs.
var handlerBands = [][2]int{{2, 4}, {5, 10}, {11, 20}, {21, 40}}

// bandSize spreads the slots of a band evenly over its sizes, in an
// order that does not line up with the defect and chatty slots.
func bandSize(band [2]int, k int) int {
	j := (5 * k) % programsPerBand
	return band[0] + j*(band[1]-band[0])/(programsPerBand-1)
}

// programsPerBand is how many generated programs each size band gets a
// round: the first six carry a seeded defect, the next six output from
// `on start`, the rest are clean. With the corpus that makes 148 jobs a
// round, so p95 falls inside the eighth-largest program's times.
const programsPerBand = 36

// defects maps each seeded defect class to a mutation of a program.
var defects = []struct {
	code  string
	apply func(p *genProgram)
}{
	{caplint.CodeUndeclared, func(p *genProgram) { p.inject("ghostCounter = 1;") }},
	{caplint.CodeUnknownFunc, func(p *genProgram) { p.inject("frobnicate(1);") }},
	{caplint.CodeConstOverflow, func(p *genProgram) { p.inject("g0 = 300;") }},
	{caplint.CodeCallArity, func(p *genProgram) { p.clip = true; p.inject("g0 = clip(1, 2);") }},
	{caplint.CodeArrayMisuse, func(p *genProgram) { p.buf = true; p.inject("buf[9] = 1;") }},
	{caplint.CodeUnknownMsgVar, func(p *genProgram) { p.extra = append(p.extra, "on message ghostMsg\n{\n  g0 = 1;\n}\n") }},
	{caplint.CodeDuplicateDecl, func(p *genProgram) { p.decls = append(p.decls, "byte g0;") }},
	{caplint.CodeThisOutsideMsg, func(p *genProgram) { p.start = append(p.start, "g0 = this.byte(0);") }},
}

// scalar is a generated global's CAPL type with its value range.
type scalar struct {
	name   string
	lo, hi int64
}

var scalars = []scalar{
	{"byte", 0, 255}, {"word", 0, 65535}, {"int", -32768, 32767},
	{"long", -2147483648, 2147483647}, {"dword", 0, 4294967295},
}

// genProgram is one generated CAPL node under construction.
type genProgram struct {
	nStim, nResp int
	globals      []scalar // g0 is always a byte
	timer        bool
	buf, clip    bool
	decls        []string
	start        []string
	handlers     [][]string // one statement list per stimulus
	timerBody    []string
	extra        []string // extra handler texts
}

// inject appends a statement to the first message handler.
func (p *genProgram) inject(stmt string) { p.handlers[0] = append(p.handlers[0], stmt) }

func fits(src, dst scalar) bool { return src.lo >= dst.lo && src.hi <= dst.hi }

// expr builds an expression whose type fits the global dst: a small
// constant, or a global of a type that fits, possibly combined with a
// constant or another such global.
func (p *genProgram) expr(r *rand.Rand, dst int) string {
	var cands []int
	for i, g := range p.globals {
		if fits(g, p.globals[dst]) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 || r.Intn(4) == 0 {
		return fmt.Sprint(r.Intn(100))
	}
	v := fmt.Sprintf("g%d", cands[r.Intn(len(cands))])
	switch r.Intn(3) {
	case 0:
		return v
	case 1:
		return fmt.Sprintf("%s %s %d", v, []string{"+", "&", "|", "^"}[r.Intn(4)], r.Intn(64))
	default:
		return fmt.Sprintf("%s + g%d", v, cands[r.Intn(len(cands))])
	}
}

// plain builds event-free statements, some under a data-dependent if.
func (p *genProgram) plain(r *rand.Rand, n int, nested bool) []string {
	var out []string
	for i := 0; i < n; i++ {
		dst := r.Intn(len(p.globals))
		stmt := fmt.Sprintf("g%d = %s;", dst, p.expr(r, dst))
		if !nested && r.Intn(4) == 0 {
			cond := fmt.Sprintf("g%d > %d", r.Intn(len(p.globals)), r.Intn(40))
			then := p.plain(r, 1, true)
			stmt = fmt.Sprintf("if (%s) {\n    %s\n  }", cond, strings.Join(then, "\n    "))
			if r.Intn(2) == 0 {
				stmt = strings.TrimSuffix(stmt, "}") + fmt.Sprintf("} else {\n    %s\n  }", p.plain(r, 1, true)[0])
			}
		}
		out = append(out, stmt)
	}
	return out
}

// outputs builds up to n output() calls in non-decreasing identifier
// order, some guarded by a data-dependent if.
func (p *genProgram) outputs(r *rand.Rand, n int) []string {
	var out []string
	next := 0
	for i := 0; i < n && next < p.nResp; i++ {
		j := next + r.Intn(p.nResp-next)
		next = j + 1
		burst := fmt.Sprintf("resp%d.byte(%d) = %d;\n  output(resp%d);", j, r.Intn(8), r.Intn(256), j)
		if r.Intn(3) == 0 {
			burst = fmt.Sprintf("if (g%d < %d) {\n    output(resp%d);\n  }", r.Intn(len(p.globals)), r.Intn(50), j)
		}
		out = append(out, burst)
	}
	return out
}

// newProgram generates a lint-clean node with the given number of
// message handlers and, as asked, a cyclic timer and a byte array.
func newProgram(r *rand.Rand, handlers int, timer, buf bool) *genProgram {
	p := &genProgram{nStim: handlers, nResp: 1 + handlers/2, timer: timer, buf: buf}
	p.globals = append(p.globals, scalars[0])
	for n := 2 + handlers/4; len(p.globals) < n; {
		p.globals = append(p.globals, scalars[r.Intn(len(scalars))])
	}
	p.start = p.plain(r, 1+r.Intn(2), false)
	for i := 0; i < handlers; i++ {
		body := p.plain(r, 1+r.Intn(3), false)
		if p.buf && r.Intn(3) == 0 {
			body = append(body, fmt.Sprintf("buf[%d] = %d;", r.Intn(8), r.Intn(256)))
		}
		if r.Intn(3) == 0 {
			body = append(body, fmt.Sprintf("g0 = this.byte(%d);", r.Intn(8)))
		}
		p.handlers = append(p.handlers, append(body, p.outputs(r, r.Intn(3))...))
	}
	if p.timer {
		p.timerBody = append(p.plain(r, 1+r.Intn(2), false), "setTimer(t0, 10);")
	}
	return p
}

// source renders the CAPL program.
func (p *genProgram) source() string {
	var b strings.Builder
	b.WriteString("/*@!Encoding:1310*/\nvariables\n{\n")
	for i := 0; i < p.nStim; i++ {
		fmt.Fprintf(&b, "  message 0x%X stim%d;\n", stimBaseID+i, i)
	}
	for j := 0; j < p.nResp; j++ {
		fmt.Fprintf(&b, "  message 0x%X resp%d;\n", respBaseID+j, j)
	}
	if p.timer {
		b.WriteString("  msTimer t0;\n")
	}
	if p.buf {
		b.WriteString("  byte buf[8];\n")
	}
	for i, g := range p.globals {
		fmt.Fprintf(&b, "  %s g%d;\n", g.name, i)
	}
	for _, d := range p.decls {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	b.WriteString("}\n")
	if p.clip {
		b.WriteString("\nbyte clip(byte v)\n{\n  return v & 15;\n}\n")
	}
	writeHandler := func(head string, body []string) {
		fmt.Fprintf(&b, "\n%s\n{\n", head)
		for _, s := range body {
			fmt.Fprintf(&b, "  %s\n", s)
		}
		b.WriteString("}\n")
	}
	start := p.start
	if p.timer {
		start = append(slices.Clip(start), "setTimer(t0, 10);")
	}
	writeHandler("on start", start)
	for i, body := range p.handlers {
		writeHandler(fmt.Sprintf("on message stim%d", i), body)
	}
	if p.timer {
		writeHandler("on timer t0", p.timerBody)
	}
	for _, h := range p.extra {
		b.WriteString("\n" + h)
	}
	return b.String()
}

// dbc renders the CAN database covering every generated message.
func (p *genProgram) dbc() string {
	var b strings.Builder
	b.WriteString("VERSION \"ecubench\"\n\nNS_ :\n\nBS_:\n\nBU_: DRV NODE\n\n")
	for i := 0; i < p.nStim; i++ {
		fmt.Fprintf(&b, "BO_ %d Stim%d: 8 DRV\n SG_ Raw : 0|8@1+ (1,0) [0|255] \"\" NODE\n\n", stimBaseID+i, i)
	}
	for j := 0; j < p.nResp; j++ {
		fmt.Fprintf(&b, "BO_ %d Resp%d: 8 NODE\n SG_ Raw : 0|8@1+ (1,0) [0|255] \"\" DRV\n\n", respBaseID+j, j)
	}
	return b.String()
}

// spec renders the assertion section: a stimulus must come before any
// response (timer events hidden).
func (p *genProgram) spec() string {
	var stims, any []string
	for i := 0; i < p.nStim; i++ {
		stims = append(stims, fmt.Sprintf("stim.stim%d -> ANY", i))
	}
	any = append(any, stims...)
	for j := 0; j < p.nResp; j++ {
		any = append(any, fmt.Sprintf("resp.resp%d -> ANY", j))
	}
	node := "NODE"
	if p.timer {
		node = "NODE \\ {| setTimer, cancelTimer, timeout |}"
	}
	return fmt.Sprintf("\nANY = %s\nSPEC = %s\nassert SPEC [T= %s\n",
		strings.Join(any, " [] "), strings.Join(stims, " [] "), node)
}

// frontInput is one capl-front job's input texts.
type frontInput struct {
	file, src, dbc, spec string
	opts                 translate.Options
}

// frontJob runs DBC parse -> parse -> lint+typecheck -> strict
// translate -> cspm.Load -> the assertion.
func frontJob(in frontInput) func(c call) (observed, error) {
	return func(c call) (observed, error) {
		var got observed
		db, err := c.candbParse(in.dbc)
		if err != nil {
			return got, err
		}
		prog, err := c.caplParse(in.src)
		if err != nil {
			return got, err
		}
		addCodes := func(diags []caplint.Diagnostic) {
			for _, d := range diags {
				if d.Severity == caplint.SevError && !slices.Contains(got.Codes, d.Code) {
					got.Codes = append(got.Codes, d.Code)
				}
			}
		}
		addCodes(c.caplintAnalyze(prog, caplint.Options{File: in.file, DB: db}, len(in.src)))
		opts := in.opts
		opts.DB = db
		res, err := c.translate(prog, opts, len(in.src))
		var lintErr *translate.LintError
		if errors.As(err, &lintErr) {
			addCodes(lintErr.Diags)
			return got, nil
		}
		if err != nil {
			return got, err
		}
		got.Accepted = true
		m, err := c.cspmLoad(res.Text + in.spec)
		if err != nil {
			return got, err
		}
		bgt := fdr.Budget{MaxStates: 50_000, MaxDuration: 5 * time.Second, Cache: lts.NewCache()}
		return got, checkAll(c, m, bgt, &got)
	}
}

// checkAll checks every assertion of m in order with one cache, as
// fdr.RunAllBudget does, recording the verdicts and the first
// counterexample.
func checkAll(c call, m *cspm.Model, bgt fdr.Budget, got *observed) error {
	for _, a := range m.Asserts {
		res, err := c.checkAssert(m, a, bgt)
		if err != nil {
			return fmt.Errorf("assertion %q: %w", a.Text, err)
		}
		got.record(res)
	}
	return nil
}

// record adds one assertion verdict; the first refuted assertion's
// witness is kept.
func (o *observed) record(res refine.Result) {
	if !res.Holds && !slices.Contains(o.Holds, false) {
		o.Cex = []string{}
		for _, ev := range res.Counterexample {
			o.Cex = append(o.Cex, ev.String())
		}
		if res.BadEvent != nil {
			o.BadEvent = res.BadEvent.String()
		}
	}
	o.Holds = append(o.Holds, res.Holds)
}

// corpus lists the repository's CAPL programs with their role and
// known-answer kind.
var corpus = []struct {
	file, node, kind string
}{
	{"testdata/ecu.can", "ECU", "corpus-ecu"},
	{"testdata/flawed_ecu.can", "ECU", "corpus-flawed-ecu"},
	{"testdata/vmg.can", "VMG", "corpus-vmg"},
	{"testdata/vmg_timer.can", "VMG", "corpus-vmg"},
}

// Known-answer specifications of the corpus programs (paper Tables II
// and III).
const (
	ecuSpec = "\nSP = send.reqSw -> rec.rptSw -> SP [] send.reqApp -> rec.rptUpd -> SP\nassert SP [T= ECU\n"
	vmgSpec = "\nSPV = send.reqSw -> SPV [] rec.rptUpd -> SPV [] rec.rptSw -> SPA\n" +
		"SPA = send.reqApp -> SPV [] send.reqSw -> SPV [] rec.rptUpd -> SPV [] rec.rptSw -> SPA\n" +
		"assert SPV [T= %s\n"
)

// buildCAPLFront generates the capl-front round: per size band six
// defective, six `on start`-chatty and 24 clean programs, plus the
// repository corpus.
func buildCAPLFront(seed int64, answers map[string]answer) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	p := &plan{}
	for k := 0; k < programsPerBand; k++ {
		for _, band := range handlerBands {
			handlers := bandSize(band, k)
			g := newProgram(r, handlers, k%2 == 1, k%4 < 2)
			kind := "gen-clean"
			want := answers[kind]
			switch {
			case k < 6:
				kind = "gen-defect"
				d := defects[r.Intn(len(defects))]
				d.apply(g)
				want = answers[kind]
				want.Code = d.code
			case k < 12:
				kind = "gen-chatty"
				j := r.Intn(g.nResp)
				g.start = append(g.start, fmt.Sprintf("output(resp%d);", j))
				want = answers[kind]
				want.BadEvent = fmt.Sprintf("resp.resp%d", j)
				want.Cex = []string{want.BadEvent}
			}
			in := frontInput{
				file: fmt.Sprintf("gen%02d.can", len(p.jobs)),
				src:  g.source(), dbc: g.dbc(), spec: g.spec(),
				opts: translate.Options{NodeName: "NODE", InChannel: "stim", OutChannel: "resp",
					IncludeTimers: true, Strict: true},
			}
			in.opts.SourceFile = in.file
			p.jobs = append(p.jobs, job{kind: kind, name: fmt.Sprintf("%s/%s/%dh", in.file, kind, handlers), want: want, run: frontJob(in)})
			p.inputs = append(p.inputs, in.src, in.dbc, in.spec)
		}
	}
	dbc, err := os.ReadFile(filepath.FromSlash("testdata/ota.dbc"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNoInputs, err)
	}
	for _, f := range corpus {
		src, err := os.ReadFile(filepath.FromSlash(f.file))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errNoInputs, err)
		}
		in := frontInput{file: f.file, src: string(src), dbc: string(dbc),
			opts: translate.Options{NodeName: f.node, MessageRename: ota.MessageRename,
				IncludeTimers: true, Strict: true, SourceFile: f.file}}
		if f.node == "ECU" {
			in.opts.InChannel, in.opts.OutChannel, in.spec = "send", "rec", ecuSpec
		} else {
			view := "VMG"
			if strings.Contains(in.src, "setTimer") {
				view = "VMG \\ {| setTimer, cancelTimer, timeout |}"
			}
			in.opts.InChannel, in.opts.OutChannel, in.spec = "rec", "send", fmt.Sprintf(vmgSpec, view)
		}
		p.jobs = append(p.jobs, job{kind: f.kind, name: f.file, want: answers[f.kind], run: frontJob(in)})
	}
	return p, nil
}
