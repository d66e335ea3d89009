package summary

import (
	"encoding/json"
	"testing"

	"symplfied/internal/analysis"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/asm"
	"symplfied/internal/isa"
)

// findOp returns the pc of the n-th instruction with the given opcode.
func findOp(t *testing.T, prog *isa.Program, op isa.Op, n int) int {
	t.Helper()
	for pc := 0; pc < prog.Len(); pc++ {
		if prog.At(pc).Op == op {
			if n == 0 {
				return pc
			}
			n--
		}
	}
	t.Fatalf("no %v (n=%d) in program", op, n)
	return -1
}

func TestPartitionTCAS(t *testing.T) {
	prog := tcas.Program()
	fs := Partition(prog, nil)
	if len(fs.Funcs) < 8 {
		t.Fatalf("tcas partition found %d functions, want >= 8", len(fs.Funcs))
	}
	if fs.Funcs[0].Entry != 0 {
		t.Fatalf("first function entry = %d, want 0", fs.Funcs[0].Entry)
	}
	byName := map[string]*Func{}
	for _, f := range fs.Funcs {
		byName[f.Name] = f
	}
	for _, want := range []string{"alt_sep_test", "NCBC", "Own_Below_Threat"} {
		f, ok := byName[want]
		if !ok {
			t.Fatalf("function %q not discovered (have %v)", want, names(fs))
		}
		if f.Opaque {
			t.Errorf("%s is opaque: %s", want, f.OpaqueReason)
		}
		if len(f.Exits) == 0 {
			t.Errorf("%s has no jr $31 exits", want)
		}
	}
	// alt_sep_test is the non-leaf hub: it must see its callees.
	if f := byName["alt_sep_test"]; len(f.Calls) < 2 {
		t.Errorf("alt_sep_test call sites = %d, want >= 2", len(f.Calls))
	}
}

func names(fs *Funcs) []string {
	var out []string
	for _, f := range fs.Funcs {
		out = append(out, f.Name)
	}
	return out
}

// effect builds the summary set for src and returns EffectOf(pc, r).
func effectAt(t *testing.T, src string, pc int, r isa.Reg) Effect {
	t.Helper()
	u := asm.MustParse("t", src)
	s := Build(u.Program, u.Detectors, nil)
	e, ok := s.EffectOf(pc, r)
	if !ok {
		t.Fatalf("EffectOf(%d, %s) unclassifiable", pc, r)
	}
	return e
}

func TestTaintKilledBeforeUse(t *testing.T) {
	// err in $2 is overwritten before the print: provably benign.
	src := "\tli $2 #1\n\tprint $2\n\thalt\n"
	if e := effectAt(t, src, 0, 2); !e.Benign() {
		t.Fatalf("killed taint effect = %v, want none", e)
	}
}

func TestTaintReachesOutput(t *testing.T) {
	src := "\tprint $2\n\thalt\n"
	if e := effectAt(t, src, 0, 2); e != EffOutput {
		t.Fatalf("printed taint effect = %v, want output", e)
	}
}

func TestTaintReachesControl(t *testing.T) {
	src := "\tbeqi $2 #0 end\nend:\thalt\n"
	if e := effectAt(t, src, 0, 2); e&EffControl == 0 {
		t.Fatalf("branch taint effect = %v, want control", e)
	}
}

func TestTaintReachesDetector(t *testing.T) {
	src := "\tdet(1, $2, ==, 0)\n\tcheck #1\n\thalt\n"
	if e := effectAt(t, src, 0, 2); e != EffDetector {
		t.Fatalf("checked taint effect = %v, want detector", e)
	}
}

func TestTaintThroughMemory(t *testing.T) {
	// err in $2 is stored, reloaded into $3, and printed.
	src := "\tst $2 0($0)\n\tld $3 0($0)\n\tprint $3\n\thalt\n"
	if e := effectAt(t, src, 0, 2); e != EffOutput {
		t.Fatalf("through-memory effect = %v, want output", e)
	}
	// A tainted address is a control effect.
	src2 := "\tld $3 0($2)\n\thalt\n"
	if e := effectAt(t, src2, 0, 2); e&EffControl == 0 {
		t.Fatalf("tainted-address effect = %v, want control", e)
	}
}

const callSrc = `
	li $1 #7
	jal f
	print $3
	halt
f:
	mov $3 $1
	jr $31
`

func TestCallComposition(t *testing.T) {
	u := asm.MustParse("t", callSrc)
	s := Build(u.Program, u.Detectors, nil)
	jal := findOp(t, u.Program, isa.OpJal, 0)
	print := findOp(t, u.Program, isa.OpPrint, 0)

	// err in $1 at the call: f copies it into $3, the caller prints $3.
	if e, ok := s.EffectOf(jal, 1); !ok || e != EffOutput {
		t.Fatalf("EffectOf(jal, $1) = %v ok=%v, want output", e, ok)
	}
	// err in $1 after the call: nothing reads $1 again — benign.
	if e, ok := s.EffectOf(print, 1); !ok || !e.Benign() {
		t.Fatalf("EffectOf(print, $1) = %v ok=%v, want none", e, ok)
	}
	// err in $2 anywhere: never read — benign.
	if e, ok := s.EffectOf(jal, 2); !ok || !e.Benign() {
		t.Fatalf("EffectOf(jal, $2) = %v ok=%v, want none", e, ok)
	}
	// The callee's own summary records the escape into $3.
	f, ok := s.Funcs.ByEntry(u.Program.At(jal).Target)
	if !ok {
		t.Fatal("callee not discovered")
	}
	var fi int
	for i, g := range s.Funcs.Funcs {
		if g == f {
			fi = i
		}
	}
	le := s.Summaries()[fi].Regs[1]
	if !le.Out.Has(3) || !le.Out.Has(1) {
		t.Fatalf("callee summary out-set = %v, want {$1,$3}", le.Out)
	}
}

// TestTaintEscapeToCaller checks the continuation composition: taint that
// survives the callee's return is judged by what the caller does next.
func TestTaintEscapeToCaller(t *testing.T) {
	u := asm.MustParse("t", callSrc)
	s := Build(u.Program, u.Detectors, nil)
	// err in $1 at f's entry (the mov): copied to $3, escapes, and the
	// caller prints $3 — the callee-local view alone would call it silent.
	f := findOp(t, u.Program, isa.OpMov, 0)
	if e, ok := s.EffectOf(f, 1); !ok || e != EffOutput {
		t.Fatalf("EffectOf(mov, $1) = %v ok=%v, want output via caller continuation", e, ok)
	}
}

// TestCallKillsCallerTaint pins the jal composition rule: the state after a
// call is exactly the callee's exit taint for the caller's tainted entry
// locations, so a register the callee overwrites on every path leaves the
// call clean, an untouched one survives, and a copied one carries the taint
// to its destination.
func TestCallKillsCallerTaint(t *testing.T) {
	none := analysis.RegSet(0)
	for _, tc := range []struct {
		name, callee string
		out          analysis.RegSet // the callee's exit taint for $2
		want         Effect
	}{
		// f overwrites caller-held $2 before returning: the err never
		// reaches the caller's print.
		{"overwrites", "\tli $2 #1\n\tjr $31\n", none, 0},
		// f leaves $2 alone: the caller's print still outputs the err.
		{"untouched", "\tli $3 #1\n\tjr $31\n", none.Add(2), EffOutput},
		// f copies $2 into $4 and then overwrites $2: the taint leaves the
		// call in $4 alone, and the caller prints $4.
		{"copies", "\tmov $4 $2\n\tli $2 #1\n\tjr $31\n", none.Add(4), EffOutput},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := asm.MustParse("t", "\tjal f\n\tprint $2\n\tprint $4\n\thalt\nf:\n"+tc.callee)
			s := Build(u.Program, u.Detectors, nil)
			jal := findOp(t, u.Program, isa.OpJal, 0)
			if out := s.sums[s.Funcs.byEntry[u.Program.At(jal).Target]].Regs[2].Out; out != tc.out {
				t.Errorf("callee exit taint for $2 = %v, want %v", out, tc.out)
			}
			if e, ok := s.EffectOf(jal, 2); !ok || e != tc.want {
				t.Errorf("EffectOf(jal, $2) = %v ok=%v, want %v", e, ok, tc.want)
			}
		})
	}
}

const twoCalleeSrc = `
	jal f
	jal h
	halt
f:
	addi $4 $4 #1
	jr $31
h:
	addi $5 $5 #2
	jr $31
`

func TestIncrementalKeys(t *testing.T) {
	u := asm.MustParse("t", twoCalleeSrc)
	cache := NewCache(0, nil)
	s1 := Build(u.Program, u.Detectors, cache)
	if len(s1.Stats.Hits) != 0 || len(s1.Stats.Computed) != 3 {
		t.Fatalf("cold build: computed %v hits %v", s1.Stats.Computed, s1.Stats.Hits)
	}
	// Unchanged rebuild: pure cache hit for every function.
	s2 := Build(u.Program, u.Detectors, cache)
	if len(s2.Stats.Computed) != 0 || len(s2.Stats.Hits) != 3 {
		t.Fatalf("warm build: computed %v hits %v", s2.Stats.Computed, s2.Stats.Hits)
	}
	// In-place mutation of h: only h and its caller (@0) re-key; f hits.
	mut := asm.MustParse("t", "\tjal f\n\tjal h\n\thalt\nf:\taddi $4 $4 #1\n\tjr $31\nh:\taddi $5 $5 #3\n\tjr $31\n")
	s3 := Build(mut.Program, mut.Detectors, cache)
	if got, want := setOf(s3.Stats.Computed), setOf([]string{"@0", "h"}); !sameSet(got, want) {
		t.Fatalf("mutated build recomputed %v, want {@0, h}", s3.Stats.Computed)
	}
	if got := setOf(s3.Stats.Hits); !sameSet(got, setOf([]string{"f"})) {
		t.Fatalf("mutated build hit %v, want {f}", s3.Stats.Hits)
	}
}

func setOf(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	u := asm.MustParse("t", twoCalleeSrc)
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := Build(u.Program, u.Detectors, NewCache(0, store))
	if len(s1.Stats.Computed) != 3 {
		t.Fatalf("cold: computed %v", s1.Stats.Computed)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory is warm.
	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != 3 {
		t.Fatalf("reopened store has %d entries, want 3", store2.Len())
	}
	s2 := Build(u.Program, u.Detectors, NewCache(0, store2))
	if len(s2.Stats.Computed) != 0 || len(s2.Stats.Hits) != 3 {
		t.Fatalf("warm from disk: computed %v hits %v", s2.Stats.Computed, s2.Stats.Hits)
	}
}

// TestDiskStoreStaleVersionMisses pins the cache invalidation a semantics
// change relies on: summaries a store holds under an older key version are
// never served, so a warm run cannot inherit stale verdicts.
func TestDiskStoreStaleVersionMisses(t *testing.T) {
	const stale = "symplfied-summary-v1"
	if keyVersion == stale {
		t.Fatalf("keyVersion is still %q", stale)
	}
	dir := t.TempDir()
	u := asm.MustParse("t", twoCalleeSrc)
	fs := Partition(u.Program, u.Detectors)
	oldKeys, curKeys := sccKeys(fs, stale), sccKeys(fs, keyVersion)
	sums := Build(u.Program, u.Detectors, nil).Summaries()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range oldKeys {
		if k == curKeys[i] {
			t.Fatalf("function %d keys identically under %q and %q", i, stale, keyVersion)
		}
		v, err := json.Marshal(sums[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	s := Build(u.Program, u.Detectors, NewCache(0, store2))
	if len(s.Stats.Hits) != 0 || len(s.Stats.Computed) != len(oldKeys) {
		t.Fatalf("build over a %s store: computed %v hits %v, want every function computed", stale, s.Stats.Computed, s.Stats.Hits)
	}
	if got, want := store2.Len(), 2*len(oldKeys); got != want {
		t.Fatalf("store holds %d entries after the rebuild, want %d (stale plus current)", got, want)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, nil)
	c.Put("a", &FuncSummary{Name: "a"})
	c.Put("b", &FuncSummary{Name: "b"})
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry not evicted at capacity 1")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("newest entry missing")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestOpaqueGuards(t *testing.T) {
	// Indirect jr: the containing function must be opaque.
	u := asm.MustParse("t", "\tjr $5\n")
	s := Build(u.Program, u.Detectors, nil)
	if !s.Funcs.Funcs[0].Opaque {
		t.Fatal("indirect jr did not mark the function opaque")
	}
	if e, ok := s.EffectOf(0, 2); !ok || e != EffAll {
		t.Fatalf("opaque effect = %v ok=%v, want EffAll", e, ok)
	}
	// mov into $31 is an undisciplined RA write.
	u2 := asm.MustParse("t", "\tmov $31 $3\n\tjr $31\n")
	s2 := Build(u2.Program, u2.Detectors, nil)
	if !s2.Funcs.Funcs[0].Opaque {
		t.Fatal("mov into $31 did not mark the function opaque")
	}
}

// TestTCASSummariesBenign spot-checks the summary classifier against
// liveness on the real program: summaries must (at least) classify benign
// everything the per-site liveness proof does, at the sites the partition
// covers.
func TestTCASSummariesClassify(t *testing.T) {
	prog := tcas.Program()
	s := Build(prog, nil, nil)
	benign := 0
	for pc := 0; pc < prog.Len(); pc++ {
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if e, ok := s.EffectOf(pc, r); ok && e.Benign() {
				benign++
			}
		}
	}
	if benign == 0 {
		t.Fatal("summaries classify nothing benign on tcas")
	}
	t.Logf("tcas: %d benign (pc, reg) sites", benign)
}
