package summary

import (
	"fmt"
	"sort"

	"symplfied/internal/fingerprint"
	"symplfied/internal/isa"
	"symplfied/internal/symbolic"
)

// keyVersion is folded into every content key; bump it when the canonical
// encoding or the summary semantics change, so stale on-disk caches
// invalidate wholesale instead of deserializing into wrong verdicts.
const keyVersion = "symplfied-summary-v2"

// hash64Writer adapts symbolic.Hash64 to io.Writer so the shared
// fingerprint encoding (internal/fingerprint) feeds the same canonical
// detector bytes into summary keys that campaign and crossval fingerprints
// hash — one scheme, no drift.
type hash64Writer struct{ h *symbolic.Hash64 }

func (w hash64Writer) Write(p []byte) (int, error) {
	for _, b := range p {
		w.h.Byte(b)
	}
	return len(p), nil
}

// sccKeys computes the content-addressed cache key of every function under
// key-format version (keyVersion outside tests). A key covers: the version;
// for every member of the function's
// call-graph SCC (mutually recursive functions are one content unit), the
// body rendered canonically — entry-relative pc, opcode and operand fields,
// absolute branch/jump targets, the string literal, and for each CHECK the
// referenced detector's shared fingerprint line — plus, in call-site order,
// the keys of callees outside the SCC. Labels, comments and source lines
// are ignored: they cannot change behavior.
//
// Consequences: an in-place mutation of one function re-keys exactly that
// function (its SCC) and its transitive callers; inserting or deleting an
// instruction shifts absolute pcs and conservatively re-keys everything
// downstream of the shift — never wrong, just colder.
func sccKeys(fs *Funcs, version string) []string {
	keys := make([]string, len(fs.Funcs))
	for _, scc := range sccOrder(fs) {
		h := symbolic.NewHash64()
		fp := fingerprint.NewInto(hash64Writer{&h})
		fp.Line(version)
		inSCC := make(map[int]bool, len(scc))
		for _, fi := range scc {
			inSCC[fi] = true
		}
		for _, fi := range scc {
			f := fs.Funcs[fi]
			h.Int(int64(len(f.Body)))
			for _, pc := range f.Body {
				in := fs.Prog.At(pc)
				h.Int(int64(pc - f.Entry))
				h.Int(int64(in.Op))
				h.Int(int64(in.Rd))
				h.Int(int64(in.Rs))
				h.Int(int64(in.Rt))
				h.Int(in.Imm)
				h.Int(int64(in.Target))
				h.Str(in.Str)
				if in.Op == isa.OpCheck {
					if d, ok := fs.Dets.Lookup(in.Imm); ok {
						fp.Detector(d)
					} else {
						fp.Line("det unknown %d", in.Imm)
					}
				}
			}
			for _, cs := range f.Calls {
				if j, ok := fs.byEntry[cs.Callee]; ok && !inSCC[j] {
					h.Str(keys[j])
				}
			}
		}
		for i, fi := range scc {
			k := h
			k.Int(int64(i))
			keys[fi] = fmt.Sprintf("%016x", k.Sum())
		}
	}
	return keys
}

// sccOrder returns the strongly connected components of the call graph in
// reverse topological order — every callee SCC before its callers — which
// is both the key-computation order and the bottom-up summary build order.
// Tarjan's algorithm, iterative to keep deep call chains off the Go stack.
func sccOrder(fs *Funcs) [][]int {
	n := len(fs.Funcs)
	succs := make([][]int, n)
	for i, f := range fs.Funcs {
		seen := map[int]bool{}
		for _, cs := range f.Calls {
			if j, ok := fs.byEntry[cs.Callee]; ok && !seen[j] {
				seen[j] = true
				succs[i] = append(succs[i], j)
			}
		}
	}
	var (
		sccs    [][]int
		index   = make([]int, n)
		lowlink = make([]int, n)
		onStack = make([]bool, n)
		stack   []int
		next    = 1 // 0 means unvisited
	)
	type frame struct{ v, i int }
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		frames := []frame{{v: root}}
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			if fr.i < len(succs[fr.v]) {
				w := succs[fr.v][fr.i]
				fr.i++
				if index[w] == 0 {
					index[w], lowlink[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < lowlink[fr.v] {
					lowlink[fr.v] = index[w]
				}
				continue
			}
			v := fr.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				// Ascending function order keeps key folding deterministic.
				sort.Ints(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
