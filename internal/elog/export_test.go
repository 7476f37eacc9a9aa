package elog

import (
	"fmt"
	"runtime"

	"repro/internal/pib"
)

// RunNaive is the reference TestNoConfirmingPass holds Run (cp == nil)
// and RunCompiled to: the same evaluation with the fixpoint scheduler
// runStratum replaced — every wave of a stratum, sequential or not, is
// applied again and again until a whole pass commits nothing, which is
// what runStratum did before it skipped waves whose read sets had not
// grown.
func (ev *Evaluator) RunNaive(p *Program, cp *CompiledProgram) (*pib.Base, error) {
	r := &runner{ev: ev, cp: cp, base: pib.NewBase(),
		docs: map[string]*pib.Instance{}, announced: map[*pib.Instance]bool{}}
	r.fr = newFrontier(ev.Fetcher, ev.MaxConcurrency, ev.max(ev.MaxDocuments, 64), cp != nil, nil, false)
	defer r.fr.drain()
	st, err := Stratify(p)
	if err != nil {
		return r.base, err
	}
	conc := ev.MaxConcurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	for _, rules := range st {
		waves := planWaves(rules)
		for changed := true; changed; {
			changed = false
			for _, w := range waves {
				wc, err := r.runWave(w, conc)
				changed = changed || wc
				if err != nil {
					return r.base, err
				}
			}
		}
	}
	return r.base, nil
}

// NonLocal is the program's fallback report: the first rule, other than
// an entry rule (they run on the fetched page), that a maintained
// evaluation cannot graft, and why ("" when it grafts every other one).
func (cp *CompiledProgram) NonLocal() string {
	for i, r := range cp.Program.Rules {
		if why := nonLocal(cp.Program, r); why != "" && r.DocURL == "" {
			return fmt.Sprintf("rule %d (%s): %s", i+1, r.Head, why)
		}
	}
	return ""
}
