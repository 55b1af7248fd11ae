package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// answer is the expected verdict of a job. Unset fields are not checked.
type answer struct {
	// Class is "pass" (assertion holds, program accepted, schedule
	// conforms, model learned equivalent) or "fail" (refuted with a
	// witness, rejected with a diagnostic, diverges with a trace).
	Class    string   `json:"class"`
	Accepted *bool    `json:"accepted,omitempty"`
	Code     string   `json:"code,omitempty"`
	Holds    []bool   `json:"holds,omitempty"`
	BadEvent string   `json:"bad_event,omitempty"`
	Cex      []string `json:"cex,omitempty"`
	CexHas   []string `json:"cex_has,omitempty"`
	CexLacks []string `json:"cex_lacks,omitempty"`
	Verdict  string   `json:"verdict,omitempty"`
	FailedAt *int     `json:"failed_at,omitempty"`
	Witness  []string `json:"witness,omitempty"`
	Source   string   `json:"source"`
}

// knownDefect pins a documented defect of the program to one job: the
// failing verdict the defect produces on it today. Only that exact
// verdict of that job counts as the known defect; it fails the job but
// does not make the run incorrect.
type knownDefect struct {
	Job    string `json:"job"`
	Defect string `json:"defect"`
	answer
}

// table is the committed known-answer table: the expected verdict of
// every job kind and the known defects pinned to single jobs.
type table struct {
	kinds   map[string]answer
	defects map[string]answer // by job name
}

// observed is what a job's calls returned, in the answer's terms.
type observed struct {
	Accepted bool
	Codes    []string // error-severity diagnostic codes
	Holds    []bool
	BadEvent string   // of the first refuted assertion
	Cex      []string // of the first refuted assertion
	Verdict  string
	FailedAt int
	Witness  []string
}

//go:embed answers.json
var answersJSON []byte

// loadAnswers parses the committed known-answer table.
func loadAnswers() (table, error) {
	var doc struct {
		Kinds        map[string]answer `json:"kinds"`
		KnownDefects []knownDefect     `json:"known_defects"`
	}
	if err := json.Unmarshal(answersJSON, &doc); err != nil {
		return table{}, fmt.Errorf("answers.json: %w", err)
	}
	t := table{kinds: doc.Kinds, defects: map[string]answer{}}
	for kind, a := range doc.Kinds {
		if a.Class != "pass" && a.Class != "fail" {
			return table{}, fmt.Errorf("answers.json: kind %s has class %q", kind, a.Class)
		}
	}
	for _, d := range doc.KnownDefects {
		if d.Job == "" || d.Defect == "" || d.Source == "" {
			return table{}, fmt.Errorf("answers.json: known defect %+v lacks its job, defect or source", d)
		}
		t.defects[d.Job] = d.answer
	}
	return t, nil
}

// pin attaches each known defect to the job of its name.
func (t table) pin(p *plan) {
	for i := range p.jobs {
		if d, ok := t.defects[p.jobs[i].name]; ok {
			p.jobs[i].defect = &d
		}
	}
}

// judge compares a job's observation with its expected answer and
// returns "" on agreement, else what differs.
func judge(want answer, got observed) string {
	var bad []string
	if want.Accepted != nil && *want.Accepted != got.Accepted {
		bad = append(bad, fmt.Sprintf("accepted=%v, want %v (codes %v)", got.Accepted, *want.Accepted, got.Codes))
	}
	if want.Code != "" && !slices.Contains(got.Codes, want.Code) {
		bad = append(bad, fmt.Sprintf("diagnostics %v lack %s", got.Codes, want.Code))
	}
	if want.Holds != nil && !slices.Equal(want.Holds, got.Holds) {
		bad = append(bad, fmt.Sprintf("holds=%v, want %v", got.Holds, want.Holds))
	}
	if want.BadEvent != "" && want.BadEvent != got.BadEvent {
		bad = append(bad, fmt.Sprintf("bad event %q, want %q", got.BadEvent, want.BadEvent))
	}
	if want.Cex != nil && !slices.Equal(want.Cex, got.Cex) {
		bad = append(bad, fmt.Sprintf("counterexample %v, want %v", got.Cex, want.Cex))
	}
	for _, ev := range want.CexHas {
		if !slices.Contains(got.Cex, ev) {
			bad = append(bad, fmt.Sprintf("counterexample %v lacks %s", got.Cex, ev))
		}
	}
	for _, ev := range want.CexLacks {
		if slices.Contains(got.Cex, ev) {
			bad = append(bad, fmt.Sprintf("counterexample %v contains %s", got.Cex, ev))
		}
	}
	if want.Verdict != "" && want.Verdict != got.Verdict {
		bad = append(bad, fmt.Sprintf("verdict %q, want %q", got.Verdict, want.Verdict))
	}
	if want.FailedAt != nil && *want.FailedAt != got.FailedAt {
		bad = append(bad, fmt.Sprintf("failed at %d, want %d", got.FailedAt, *want.FailedAt))
	}
	if want.Witness != nil && !slices.Equal(want.Witness, got.Witness) {
		bad = append(bad, fmt.Sprintf("witness %v, want %v", got.Witness, want.Witness))
	}
	return strings.Join(bad, "; ")
}
