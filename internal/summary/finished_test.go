package summary

import (
	"reflect"
	"sync"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/asm"
	"symplfied/internal/detector"
	"symplfied/internal/isa"
)

// effectTable renders every EffectOf and EffectOfMem answer of a set, over
// every pc (plus one past each end) and every register.
func effectTable(s *Set, prog *isa.Program) []string {
	var out []string
	for pc := -1; pc <= prog.Len(); pc++ {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			e, ok := s.EffectOf(pc, r)
			out = append(out, e.String(), boolStr(ok))
		}
		e, ok := s.EffectOfMem(pc)
		out = append(out, e.String(), boolStr(ok))
	}
	return out
}

func boolStr(b bool) string {
	if b {
		return "ok"
	}
	return "-"
}

// forgetFinished drops the cache's finished-set memo, so the next Build is
// the plain warm rebuild from per-function hits.
func forgetFinished(c *Cache) {
	c.mu.Lock()
	c.sets, c.setOrder = make(map[string]*finishedSet), nil
	c.mu.Unlock()
}

// TestFinishedSetMatchesRebuild: a Build answered from the finished-set memo
// gives the same EffectOf/EffectOfMem at every pc×register, and the same
// Stats, as a cold build and as a warm rebuild from per-function hits.
func TestFinishedSetMatchesRebuild(t *testing.T) {
	facDet, facDets := factorial.WithDetectors()
	cases := []struct {
		name string
		prog *isa.Program
		dets *detector.Table
	}{
		{"tcas", tcas.Program(), nil},
		{"replace", replace.Program(), nil},
		{"factorial", factorial.Plain(), nil},
		{"factorial-detectors", facDet, facDets},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold := Build(tc.prog, tc.dets, nil)
			want := effectTable(cold, tc.prog)

			cache := NewCache(0, nil)
			first := Build(tc.prog, tc.dets, cache)
			forgetFinished(cache)
			rebuilt := Build(tc.prog, tc.dets, cache) // warm, memoizes again
			memo := Build(tc.prog, tc.dets, cache)
			if memo.points != rebuilt.points || first.points == rebuilt.points {
				t.Fatal("the memoized build does not share the finished set it should")
			}
			if len(rebuilt.Stats.Computed) != 0 || !reflect.DeepEqual(memo.Stats, rebuilt.Stats) {
				t.Fatalf("stats differ: memo %+v, warm rebuild %+v", memo.Stats, rebuilt.Stats)
			}
			for name, s := range map[string]*Set{"cold into cache": first, "warm rebuild": rebuilt, "memo": memo} {
				if got := effectTable(s, tc.prog); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: effects differ from the cold build", name)
				}
			}
		})
	}
}

// TestFinishedSetNotReusedAcrossPrograms: a mutated function, a relocated
// function and a relabeled program each get their own set, with the Stats
// and effects of a cold build of that program.
func TestFinishedSetNotReusedAcrossPrograms(t *testing.T) {
	base := asm.MustParse("t", twoCalleeSrc)
	variants := []struct {
		name     string
		src      string
		computed []string
		names    []string
	}{
		{"mutated", "\tjal f\n\tjal h\n\thalt\nf:\taddi $4 $4 #1\n\tjr $31\nh:\taddi $5 $5 #3\n\tjr $31\n",
			[]string{"@0", "h"}, []string{"@0", "f", "h"}},
		{"relocated", "\tjal f\n\tjal h\n\thalt\n\tnop\nf:\taddi $4 $4 #1\n\tjr $31\nh:\taddi $5 $5 #2\n\tjr $31\n",
			[]string{"@0"}, []string{"@0", "f", "h"}}, // f and h keep their entry-relative keys
		{"relabeled", "\tjal f2\n\tjal h2\n\thalt\nf2:\taddi $4 $4 #1\n\tjr $31\nh2:\taddi $5 $5 #2\n\tjr $31\n",
			nil, []string{"@0", "f2", "h2"}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cache := NewCache(0, nil)
			orig := Build(base.Program, base.Detectors, cache)
			u := asm.MustParse("t", v.src)
			s := Build(u.Program, u.Detectors, cache)
			if s.points == orig.points {
				t.Fatal("a different program reused the finished set")
			}
			if got, want := setOf(s.Stats.Computed), setOf(v.computed); !sameSet(got, want) {
				t.Fatalf("recomputed %v, want %v", s.Stats.Computed, v.computed)
			}
			cold := Build(u.Program, u.Detectors, nil)
			if !reflect.DeepEqual(effectTable(s, u.Program), effectTable(cold, u.Program)) {
				t.Fatal("effects differ from a cold build of the same program")
			}
			names := append(append([]string(nil), s.Stats.Computed...), s.Stats.Hits...)
			if !sameSet(setOf(names), setOf(v.names)) {
				t.Fatalf("stats name %v, want %v", names, v.names)
			}
			// The original program still gets its own memoized set back.
			if again := Build(base.Program, base.Detectors, cache); again.points != orig.points {
				t.Fatal("the original program lost its finished set")
			}
		})
	}
}

// TestFinishedSetConcurrentQueries queries two sets sharing one finished
// build from many goroutines at once (run under -race): the shared point
// memo must stay consistent with a private cold build.
func TestFinishedSetConcurrentQueries(t *testing.T) {
	prog := tcas.Program()
	want := effectTable(Build(prog, nil, nil), prog)
	cache := NewCache(0, nil)
	Build(prog, nil, cache)
	a, b := Build(prog, nil, cache), Build(prog, nil, cache)
	if a.points != b.points {
		t.Fatal("warm builds do not share the finished set")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		s := a
		if g%2 == 1 {
			s = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !reflect.DeepEqual(effectTable(s, prog), want) {
				errs <- "concurrent queries disagree with the cold build"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestFinishedSetEvictedFunctionRebuilds: when the LRU has evicted a
// function summary, the memo is not used and the rebuild recomputes it.
func TestFinishedSetEvictedFunctionRebuilds(t *testing.T) {
	u := asm.MustParse("t", twoCalleeSrc)
	cache := NewCache(3, nil)
	orig := Build(u.Program, u.Detectors, cache)
	cache.Put("unrelated", &FuncSummary{Name: "x"}) // evicts the oldest summary
	s := Build(u.Program, u.Detectors, cache)
	if len(s.Stats.Computed) == 0 || s.points == orig.points {
		t.Fatalf("rebuild after eviction reused the memo: %+v", s.Stats)
	}
}
