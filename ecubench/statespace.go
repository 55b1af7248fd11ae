package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cspm"
	"repro/internal/experiments"
	"repro/internal/fdr"
	"repro/internal/lts"
	"repro/internal/ota"
)

// stateBudget is every state-space job's checker budget.
func stateBudget() fdr.Budget {
	return fdr.Budget{MaxStates: 200_000, MaxDuration: 20 * time.Second, Cache: lts.NewCache()}
}

// textJob loads a CSPm text and checks its assertions one by one with
// one cache for the job.
func textJob(text string) func(c call) (observed, error) {
	return func(c call) (observed, error) {
		var got observed
		m, err := c.cspmLoad(text)
		if err != nil {
			return got, err
		}
		return got, checkAll(c, m, stateBudget(), &got)
	}
}

// modelJob checks trace-refinement assertions of a model the set-up
// built as CSP terms (the R05 and Needham-Schroeder models have no CSPm
// text).
func modelJob(m *cspm.Model) func(c call) (observed, error) {
	return func(c call) (observed, error) {
		var got observed
		return got, checkAll(c, m, stateBudget(), &got)
	}
}

// pairsText builds the section VII request/response system with n
// pairs. flaw in 1..n-2 makes the ECU answer request flaw with the next
// pair's response, so the gateway skips a pair but keeps cycling: the
// state space stays the same size while the cycle check fails at a
// depth set by the flaw.
func pairsText(n, flaw int) (string, error) {
	ecu := experiments.GenerateScaledECU(n)
	if flaw > 0 {
		right := fmt.Sprintf("on message req%d\n{\n  output(rsp%d);", flaw, flaw)
		wrong := fmt.Sprintf("on message req%d\n{\n  output(rsp%d);", flaw, flaw+1)
		if !strings.Contains(ecu, right) {
			return "", fmt.Errorf("scaled ECU has no handler for req%d", flaw)
		}
		ecu = strings.Replace(ecu, right, wrong, 1)
	}
	rep, err := (&core.Pipeline{
		Nodes: []core.NodeSpec{
			{Name: "ECU", Source: ecu, In: "send", Out: "rec"},
			{Name: "VMG", Source: experiments.GenerateScaledVMG(n), In: "rec", Out: "send"},
		},
		Spec: "SYSTEM = VMG [| {| send, rec |} |] ECU\n",
	}).Run()
	if err != nil {
		return "", err
	}
	var hidden, cycle []string
	for i := 0; i < n; i++ {
		if i > 0 {
			hidden = append(hidden, fmt.Sprintf("send.req%d", i), fmt.Sprintf("rec.rsp%d", i))
		}
		cycle = append(cycle, fmt.Sprintf("send.req%d", i), fmt.Sprintf("rec.rsp%d", i))
	}
	var b strings.Builder
	b.WriteString(rep.CombinedSource)
	b.WriteString("SP = send.req0 -> rec.rsp0 -> SP\n")
	if len(hidden) > 0 {
		fmt.Fprintf(&b, "VIEW = SYSTEM \\ {%s}\n", strings.Join(hidden, ", "))
	} else {
		b.WriteString("VIEW = SYSTEM\n")
	}
	fmt.Fprintf(&b, "CYC = %s -> CYC\n", strings.Join(cycle, " -> "))
	b.WriteString("assert SP [T= VIEW\nassert SYSTEM :[deadlock free]\nassert CYC [T= SYSTEM\n")
	return b.String(), nil
}

// cycleCex is the counterexample of CYC when request flaw is answered
// with the next pair's response.
func cycleCex(flaw int) []string {
	var cex []string
	for i := 0; i < flaw; i++ {
		cex = append(cex, fmt.Sprintf("send.req%d", i), fmt.Sprintf("rec.rsp%d", i))
	}
	return append(cex, fmt.Sprintf("send.req%d", flaw), fmt.Sprintf("rec.rsp%d", flaw+1))
}

// pairSizes are the sizes of the scaled request/response jobs; each
// gets one clean and one flawed system a round, the flaw at a seeded
// position.
var pairSizes = []int{16, 32, 64}

// buildStateSpace builds the state-space round: the lossy-channel OTA
// compositions, the section VII scaled systems, the R05 secure
// variants and Needham-Schroeder(-Lowe).
func buildStateSpace(seed int64, answers map[string]answer) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	p := &plan{}
	addText := func(kind, name, text string, want answer) {
		p.jobs = append(p.jobs, job{kind: kind, name: name, want: want, run: textJob(text)})
		p.inputs = append(p.inputs, text)
	}
	for _, lc := range []struct {
		variant ota.LossyVariant
		budget  int
		kind    string
	}{
		{ota.HardenedGateway, 1, "lossy-hardened"},
		{ota.HardenedGateway, 2, "lossy-hardened"},
		{ota.HardenedGateway, 3, "lossy-hardened"},
		{ota.NaiveGateway, 1, "lossy-naive"},
		{ota.NaiveGateway, 2, "lossy-naive"},
	} {
		sys, err := ota.BuildLossy(lc.variant, lc.budget)
		if err != nil {
			return nil, err
		}
		addText(lc.kind, fmt.Sprintf("%s/loss=%d", lc.kind, lc.budget), sys.Source, answers[lc.kind])
	}
	for _, n := range pairSizes {
		for _, flawed := range []bool{false, true} {
			kind, flaw := "pairs-clean", 0
			if flawed {
				kind, flaw = "pairs-flawed", 1+r.Intn(n-2)
			}
			text, err := pairsText(n, flaw)
			if err != nil {
				return nil, err
			}
			want := answers[kind]
			if flawed {
				want.Cex = cycleCex(flaw)
				want.BadEvent = want.Cex[len(want.Cex)-1]
			}
			addText(kind, fmt.Sprintf("%s/pairs=%d/flaw=%d", kind, n, flaw), text, want)
		}
	}
	for _, sv := range []struct {
		variant ota.SecureVariant
		kind    string
	}{
		{ota.Naive, "secure-naive"}, {ota.MACOnly, "secure-mac"}, {ota.MACNonce, "secure-macnonce"},
	} {
		m, err := ota.BuildSecure(sv.variant)
		if err != nil {
			return nil, err
		}
		model := &cspm.Model{Ctx: m.Ctx, Env: m.Env, Asserts: []cspm.ResolvedAssert{
			{Kind: cspm.AssertTraceRef, Spec: m.AuthSpec, Impl: m.System, Text: "AUTH [T= SYSTEM"},
			{Kind: cspm.AssertTraceRef, Spec: m.InjSpec, Impl: m.System, Text: "AUTHINJ [T= SYSTEM"},
		}}
		p.jobs = append(p.jobs, job{kind: sv.kind, name: sv.kind, want: answers[sv.kind], run: modelJob(model)})
	}
	for _, nc := range []struct {
		fixed bool
		kind  string
	}{{false, "nspk"}, {true, "nsl"}} {
		m, err := attack.BuildNSPK(attack.NSPKConfig{Fixed: nc.fixed})
		if err != nil {
			return nil, err
		}
		model := &cspm.Model{Ctx: m.Ctx, Env: m.Env, Asserts: []cspm.ResolvedAssert{
			{Kind: cspm.AssertTraceRef, Spec: m.AuthSpec, Impl: m.System, Text: "AUTH [T= SYSTEM"},
		}}
		p.jobs = append(p.jobs, job{kind: nc.kind, name: nc.kind, want: answers[nc.kind], run: modelJob(model)})
	}
	return p, nil
}
