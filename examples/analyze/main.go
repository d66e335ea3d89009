// Analyze: static program analysis before any fault is injected. The
// analysis subsystem (internal/analysis) builds a control-flow graph over
// the assembly, runs backward register liveness (counting detector CHECK
// reads as uses, per the paper's Section 5.3 detector model), and lints the
// program: unreachable code, detectors whose checks can never execute, dead
// stores, reads of never-written registers.
//
// The same dataflow facts then shrink the injection campaign: a register
// proven dead at a breakpoint cannot propagate an error, and the
// compositional fault summaries (internal/summary) prove that — and more —
// so the search skips such injections with a proof instead of exploring
// them, the dataflow generalization of the paper's Section 6.1 syntactic
// pruning. Both runs below produce identical verdicts; the summarized one
// explores fewer states.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"symplfied"
	"symplfied/internal/analysis"
	"symplfied/internal/faults"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	src, err := os.ReadFile(filepath.Join("examples", "analyze", "unreachable-detector.sym"))
	if err != nil {
		// Allow running from the example's own directory too.
		src, err = os.ReadFile("unreachable-detector.sym")
		if err != nil {
			return err
		}
	}
	unit, err := symplfied.Assemble("unreachable-detector", string(src))
	if err != nil {
		return err
	}

	// 1. Lint: the program deliberately hides a detector behind a jmp.
	diags := analysis.Lint(unit.Program, unit.Detectors)
	fmt.Println("diagnostics:")
	for _, d := range diags {
		fmt.Printf("  %s\n", d)
	}
	errs, warns := analysis.Summary(diags)
	fmt.Printf("%d errors, %d warnings\n\n", errs, warns)

	// 2. Liveness: which registers could an error just before the first
	// check even propagate through? Everything else is provably benign.
	a := analysis.Analyze(unit.Program, unit.Detectors)
	fmt.Printf("live before check #1 (@2): %s — errors in any other register there are provably benign\n\n",
		a.LiveIn[2])

	// 3. The proof at work on the exhaustive register campaign — every
	// architectural register at every instruction, the 800x32 space of the
	// paper's Section 6.1 — plain vs summarized. Verdict-identical, strictly
	// fewer explorations. (A register an instruction reads is live by
	// definition, so the paper's read-registers-only enumeration leaves
	// little to prove; the proof pays off on the exhaustive space, and also
	// keeps registers the syntactic rule would wrongly skip — ones read only
	// by later instructions.)
	search := symplfied.SearchSpec{
		Unit:       unit,
		Input:      []int64{5},
		Injections: faults.RegisterInjections(unit.Program, false),
		Goal:       symplfied.GoalIncorrectOutput,
	}
	plain, err := symplfied.Search(search)
	if err != nil {
		return err
	}
	search.UseSummaries = true
	summarized, err := symplfied.Search(search)
	if err != nil {
		return err
	}
	fmt.Printf("plain:      %d injections, %d findings\n", len(plain.PerInjection), len(plain.Findings))
	fmt.Printf("summarized: %d injections (%d proven benign by summaries), %d findings\n",
		len(summarized.PerInjection), summarized.SummarizedInjections, len(summarized.Findings))
	return nil
}
