package checker

import (
	"math/rand"
	"testing"

	"symplfied/internal/apps/tcas"
	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// referenceGroups is the grouping groupParked must reproduce, written
// without buckets: scan the groups in creation order and join the first
// whose first member is merge-compatible, else open a new group.
func referenceGroups(parked []*mentry) [][]*mentry {
	var groups [][]*mentry
	for _, e := range parked {
		placed := false
		for i, g := range groups {
			if symexec.MergeCompatible(g[0].st, e.st) {
				groups[i] = append(g, e)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []*mentry{e})
		}
	}
	return groups
}

// parkedStates explores tcas with err in reg and returns a shuffled mix of
// the explored states and variants of them: clones whose store or step
// counter diverged (compatible with the original), and clones whose memory
// or input cursor diverged (same pc and registers, so the same bucket, but
// a different skeleton), and clones with one register changed.
func parkedStates(r *rand.Rand, reg isa.Reg) []*mentry {
	prog := tcas.Program()
	st := symexec.NewState(prog, detector.EmptyTable(), tcas.UpwardInput().Slice(), symexec.DefaultOptions())
	st.Inject(isa.RegLoc(reg))
	var states []*symexec.State
	frontier := []*symexec.State{st}
	for len(frontier) > 0 && len(states) < 300 {
		cur := frontier[0]
		frontier = frontier[1:]
		if !cur.Running() {
			continue
		}
		if r.Intn(3) == 0 {
			states = append(states, cur.Clone())
		}
		frontier = append(frontier, cur.Successors()...)
	}
	var out []*mentry
	for _, s := range states {
		out = append(out, &mentry{st: s})
		for v := r.Intn(4); v > 0; v-- {
			c := s.Clone()
			switch r.Intn(5) {
			case 0:
				c.Steps += 1 + r.Intn(50)
			case 1:
				root := c.Sym.Inject(isa.MemLoc(1 << 20))
				c.Sym.ConstrainRoot(root, isa.CmpGe, int64(r.Intn(9)))
			case 2:
				c.Mem.Store(int64(r.Intn(4)), isa.Int(int64(r.Intn(3))))
			case 3:
				c.InPos += 1 + r.Intn(2)
			case 4:
				c.Regs[1+r.Intn(isa.NumRegs-1)] = isa.Int(int64(r.Intn(3)))
			}
			out = append(out, &mentry{st: c})
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestGroupParkedMatchesReference: the bucketed grouping flushDeferred uses
// equals the plain greedy grouping over pairwise MergeCompatible — same
// groups, same group order, same member order.
func TestGroupParkedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	fused := 0
	for _, reg := range []isa.Reg{2, 4, 8, 29, 31} {
		parked := parkedStates(r, reg)
		got, want := groupParked(parked), referenceGroups(parked)
		if len(got) != len(want) {
			t.Fatalf("$%d: %d groups, reference %d", reg, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("$%d: group %d has %d members, reference %d", reg, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("$%d: group %d member %d differs from the reference", reg, i, j)
				}
			}
			if len(want[i]) > 1 {
				fused++
			}
		}
	}
	if fused == 0 {
		t.Fatal("no group fused: the generator is degenerate")
	}
}
