package summary_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"symplfied/internal/analysis"
	"symplfied/internal/asm"
	"symplfied/internal/checker"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/query"
	"symplfied/internal/summary"
)

// fuzzRd draws bytes from the fuzz input, cycling (and defaulting to zero)
// so every input defines a complete program.
type fuzzRd struct {
	data []byte
	i    int
}

func (r *fuzzRd) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.i%len(r.data)]
	r.i++
	return b
}

// genSource turns fuzz bytes into a program that respects the calling
// convention summary.Partition assumes: functions are entered by jal and
// return via jr $31, non-leaf functions save $31 to a private memory slot
// and restore it with ld before returning, and nothing else writes $31.
// Calls only go to strictly higher-indexed functions, so the call graph is
// acyclic and every generated program terminates.
func genSource(data []byte) string {
	r := &fuzzRd{data: data}
	nFuncs := 1 + int(r.next())%3

	var b strings.Builder
	body := func(n int) {
		for k := 0; k < n; k++ {
			reg := func() int { return 1 + int(r.next())%6 }
			switch r.next() % 6 {
			case 0:
				fmt.Fprintf(&b, "\taddi $%d $%d #%d\n", reg(), reg(), int(r.next())%16)
			case 1:
				fmt.Fprintf(&b, "\tli $%d #%d\n", reg(), int(r.next())%32)
			case 2:
				fmt.Fprintf(&b, "\tmov $%d $%d\n", reg(), reg())
			case 3:
				fmt.Fprintf(&b, "\tprint $%d\n", reg())
			case 4:
				fmt.Fprintf(&b, "\tst $%d %d($0)\n", reg(), int(r.next())%8)
			default:
				fmt.Fprintf(&b, "\tld $%d %d($0)\n", reg(), int(r.next())%8)
			}
		}
	}

	// main: body chunks interleaved with a call to every function.
	for i := 0; i < nFuncs; i++ {
		body(1 + int(r.next())%3)
		fmt.Fprintf(&b, "\tjal f%d\n", i)
	}
	body(1 + int(r.next())%2)
	fmt.Fprintf(&b, "\tprint $2\n\thalt\n")

	// Callees: each may call the next one, saving/restoring $31 in a slot
	// (100+8i) no body store can reach.
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&b, "f%d:\n", i)
		callsNext := i+1 < nFuncs && r.next()%2 == 0
		if callsNext {
			fmt.Fprintf(&b, "\tst $31 %d($0)\n", 100+8*i)
		}
		body(1 + int(r.next())%4)
		if callsNext {
			fmt.Fprintf(&b, "\tjal f%d\n", i+1)
			fmt.Fprintf(&b, "\tld $31 %d($0)\n", 100+8*i)
		}
		fmt.Fprintf(&b, "\tjr $31\n")
	}
	return b.String()
}

// FuzzSummaryCompose is the compositional-soundness fuzzer: for random
// programs with calls, a summarized sweep (with the SYMPLFIED_CHECK_SUMMARIES
// assertion re-exploring every reused report) must produce a report
// byte-identical to the plain whole-program sweep, apart from the Summarized
// markers. A composed summary that wrongly classifies an injection benign
// either panics in the cross-check or diverges the reports; both fail here.
// The sweep covers every register the generator uses at every pc, including
// registers held across calls, and every register liveness proves dead must
// be summary-benign (the summaries subsume the liveness proof).
func FuzzSummaryCompose(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xff, 0x10, 0x42, 0x99, 0x03, 0x77, 0x21, 0x5a})
	f.Add([]byte("summaries compose across call sites"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := genSource(data)
		u, err := asm.Parse("fuzz", src)
		if err != nil {
			t.Fatalf("generator emitted unparsable program: %v\n%s", err, src)
		}
		q := query.Query{Class: faults.ClassRegister, Goal: query.GoalErrOutput}
		spec, err := q.Build(u.Program, u.Detectors, nil)
		if err != nil {
			// The fault-free reference run failed (e.g. a generated ld from
			// an uninitialized slot tripping nothing here — Build only fails
			// on infrastructure); nothing to compare.
			t.Skipf("spec build: %v", err)
		}
		spec.StateBudget = 5_000
		spec.DiscardStates = true
		spec.Injections = spec.Injections[:0]
		for _, inj := range faults.RegisterInjections(u.Program, false) {
			if r := inj.Loc.Reg; r <= 6 || r == isa.RegRA {
				spec.Injections = append(spec.Injections, inj)
			}
		}

		live := analysis.Analyze(u.Program, u.Detectors)
		set := summary.Build(u.Program, u.Detectors, nil)
		for _, inj := range spec.Injections {
			if !live.DeadAt(inj.PC, inj.Loc.Reg) {
				continue
			}
			if e, ok := set.EffectOf(inj.PC, inj.Loc.Reg); !ok || !e.Benign() {
				t.Errorf("%s: register dead but summary effect %v (ok=%v) on:\n%s", inj, e, ok, src)
			}
		}

		plain, err := checker.RunCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}

		defer checker.SetCheckSummaries(true)()
		sumSpec := spec
		sumSpec.UseSummaries = true
		summarized, err := checker.RunCtx(context.Background(), sumSpec)
		if err != nil {
			t.Fatal(err)
		}

		// The markers are the one legitimate difference.
		for i := range summarized.PerInjection {
			summarized.PerInjection[i].Summarized = false
		}
		summarized.SummarizedInjections = 0
		// The spec carries the (unmarshalable) predicate closure; both runs
		// used the same one.
		summarized.Spec, plain.Spec = nil, nil

		got, err := json.Marshal(summarized)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("summarized sweep diverges from plain sweep on:\n%s\nplain:      %s\nsummarized: %s", src, want, got)
		}
	})
}
