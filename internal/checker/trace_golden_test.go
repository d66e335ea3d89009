package checker

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symplfied/internal/asm"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata with the current output")

// traceScenario is one small search whose findings, every terminal state of
// the search, together reach every site that notes a trace event.
type traceScenario struct {
	name  string
	src   string
	input []int64
	inj   []faults.Injection
	exec  func(*symexec.Options)
}

func regInj(pc int, r isa.Reg) faults.Injection {
	return faults.Injection{Class: faults.ClassRegister, PC: pc, Loc: isa.RegLoc(r)}
}

var traceScenarios = []traceScenario{
	{
		// Comparison, relation and divisor forks, constraints, concretization,
		// printed err, halt, div-zero and throw exceptions.
		name: "arith",
		src: `
	read $1
	addi $2 $1 3
	andi $5 $1 7
	setlt $4 $5 $2
	multi $6 $1 2
	beqi $6 8 eight
	li $7 12
	div $8 $7 $1
	print $8
	halt
eight:	print $1
	prints "x"
	throw "boom"
`,
		input: []int64{5},
		inj: []faults.Injection{
			regInj(1, 1),
			{Class: faults.ClassRegister, PC: 1, Loc: isa.RegLoc(1), Permanent: true},
		},
	},
	{
		// Loads through an erroneous pointer: the undefined-address batch and
		// one resolution per defined word.
		name: "load",
		src: `
	li $1 11
	st $1 100($0)
	li $1 22
	st $1 200($0)
	st $1 300($0)
	read $2
	ld $3 0($2)
	print $3
	halt
`,
		input: []int64{0},
		inj:   []faults.Injection{regInj(6, 2)},
	},
	{
		name:  "load-symbolic",
		src:   "\tli $1 11\n\tst $1 100($0)\n\tread $2\n\tld $3 0($2)\n\tprint $3\n\thalt\n",
		input: []int64{0},
		inj:   []faults.Injection{regInj(3, 2)},
		exec:  func(o *symexec.Options) { o.SymbolicMem = true },
	},
	{
		// Stores through an erroneous pointer: resolutions and the
		// fresh-location batch, which pins the bounded pointer to 101; a
		// concrete load from an undefined word; a memory-class injection.
		name: "store",
		src: `
	li $1 5
	st $1 100($0)
	st $1 102($0)
	read $2
	setlti $3 $2 100
	bnei $3 0 out
	setgti $3 $2 101
	bnei $3 0 out
	li $4 9
	st $4 0($2)
	ld $5 100($0)
	print $5
	print $2
	ld $6 50($0)
out:	halt
`,
		input: []int64{100},
		inj: []faults.Injection{
			regInj(4, 2),
			{Class: faults.ClassMemory, PC: 10, Loc: isa.MemLoc(100)},
		},
	},
	{
		// A jump through an erroneous target: one control event per code
		// location, the illegal-instruction case, end of input and the
		// watchdog; a fetch-error (control-class) injection.
		name:  "jr",
		src:   "\tread $1\n\tjr $1\n\thalt\n\thalt\n",
		input: []int64{0},
		inj: []faults.Injection{
			regInj(1, 1),
			{Class: faults.ClassControl, PC: 1},
		},
		exec: func(o *symexec.Options) { o.Watchdog = 30 },
	},
	{
		// Detector forks, passes and firings, forked and in place.
		name: "detectors",
		src: `
	det(1, $1, <, 10)
	det(2, $1, ==, 3)
	det(3, $1, >, 100)
	read $1
	check #1
	check #2
	check #1
	check #3
	print $1
	halt
`,
		input: []int64{0},
		inj:   []faults.Injection{regInj(1, 1)},
	},
}

// TestTraceGolden pins the rendered text of every trace note site, and the
// JSON of Finding.Trace, to expectations recorded before trace text became
// lazy: the executor now stores each event's facts and renders on read, and
// the rendered events must not change by a byte. Regenerate with -update only
// for an intended change of wording.
func TestTraceGolden(t *testing.T) {
	got := map[string][]Finding{}
	var texts strings.Builder
	for _, sc := range traceScenarios {
		u := asm.MustParse(sc.name, sc.src)
		exec := symexec.DefaultOptions()
		exec.Watchdog = 200
		if sc.exec != nil {
			sc.exec(&exec)
		}
		rep, err := Run(Spec{
			Program:     u.Program,
			Detectors:   u.Detectors,
			Input:       sc.input,
			Injections:  sc.inj,
			Exec:        exec,
			Predicate:   Predicate{Name: "any", Match: func(*symexec.State) bool { return true }},
			Parallelism: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for _, f := range rep.Findings {
			if n, evs := f.State.Trace.Len(), f.State.Trace.Events(); n != len(evs) {
				t.Errorf("%s: Trace.Len() = %d, len(Events()) = %d", sc.name, n, len(evs))
			}
			texts.WriteString(f.State.Trace.Render())
		}
		got[sc.name] = rep.Findings
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	// Every note site must be reached, so the golden file covers them all.
	for _, site := range []string{
		"inject: err (e#0) injected into $1 at", "injected into *(100) at",
		"note: fault in $1 is permanent (stuck-at)",
		"setlt at", ": assume <", "beqi at", ": assume ==", ": assume =/=",
		"constraint: beqi at @5: 2*e#0 == 8", "setlt at @3: e#1 < e#0+3",
		"divisor err: assume == 0", "divisor err: assume != 0",
		"load through erroneous pointer: assume undefined address",
		"address not defined: e#0 =/= 300",
		"load resolves: e#0 == 200", "load through erroneous pointer resolved to 300",
		"load through erroneous pointer: symbolic result",
		"store resolves: e#0 == 100", "store through erroneous pointer resolved to 100",
		"store through erroneous pointer: assume fresh location",
		"address not previously defined: e#0 =/= 102",
		"control target resolves: e#0 == 3",
		"control transferred through erroneous target to @2",
		"erroneous control target: assume invalid code address",
		"control: fetch error: PC redirected from @1 to @3",
		"detector 1 at @1: assume <", "detector 1 passed: det(1, $1, <, 10)",
		"detector 2 fired: det(2, $1, ==, 3)", "detector 3 fired",
		"output: printed err", `halt: halt (output "err")`, `halt (output "11")`,
		"div-zero (erroneous divisor assumed zero) at @7",
		"throw (boom) at @12", "illegal instruction (jump through erroneous target) at @1",
		"timed out (watchdog after 30 instructions)", "throw (end of input)",
		"illegal addr (load through erroneous pointer) at @6",
		"illegal addr (load from undefined 50) at @13",
		"detected (detector 2: det(2, $1, ==, 3)) at @2",
		"check-pass: detector 2 passed", "detect: detector 1 fired", "exception: detected",
		"control: control transferred",
	} {
		if !strings.Contains(texts.String(), site) {
			t.Errorf("no trace event contains %q", site)
		}
	}

	path := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		gl, wl := strings.Split(string(data), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace JSON differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace JSON differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
