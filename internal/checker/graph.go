package checker

import (
	"context"
	"fmt"
	"strings"

	"symplfied/internal/faults"
	"symplfied/internal/symexec"
)

// Graph is the explored search graph of one injection — the paper's
// Section 5.4 facility: "the programmer can query how specific final states
// were obtained or print out the search graph, which will contain the entire
// set of states that have been explored by the model checking".
type Graph struct {
	Injection faults.Injection
	Nodes     []GraphNode
	// Truncated reports that MaxNodes stopped the exploration.
	Truncated bool
}

// GraphNode is one explored state.
type GraphNode struct {
	ID     int
	Parent int // -1 for roots
	PC     int
	Steps  int
	// Outcome is set for terminal nodes.
	Outcome string
	// Label summarizes the node (location, or termination detail).
	Label string
	// Output is the rendered output stream at this state.
	Output string
}

// ExploreGraph explores with an un-cancellable context. See ExploreGraphCtx.
func ExploreGraph(spec Spec, inj faults.Injection, maxNodes int) (*Graph, error) {
	return ExploreGraphCtx(context.Background(), spec, inj, maxNodes)
}

// ExploreGraphCtx explores the injection breadth-first, recording every
// state and its parent. Unlike RunInjectionCtx it does not use the in-place
// fast path, so every intermediate state appears as a node. maxNodes bounds
// the graph (0 selects 10_000). Cancellation stops the exploration and
// returns the partial graph marked Truncated, like an exhausted node bound.
func ExploreGraphCtx(ctx context.Context, spec Spec, inj faults.Injection, maxNodes int) (*Graph, error) {
	if spec.Program == nil {
		return nil, fmt.Errorf("checker: nil program")
	}
	if maxNodes <= 0 {
		maxNodes = 10_000
	}

	st := prefixState(&spec, inj)
	if st == nil {
		return nil, fmt.Errorf("checker: injection %s never activated", inj)
	}
	initial, err := inj.Apply(st)
	if err != nil {
		return nil, err
	}

	g := &Graph{Injection: inj}
	type workItem struct {
		state  *symexec.State
		parent int
	}
	var frontier []workItem
	for _, s := range initial {
		frontier = append(frontier, workItem{state: s, parent: -1})
	}
	for len(frontier) > 0 {
		if len(g.Nodes) >= maxNodes {
			g.Truncated = true
			break
		}
		if len(g.Nodes)&ctxCheckMask == 0 && ctx.Err() != nil {
			g.Truncated = true
			break
		}
		cur := frontier[0]
		frontier = frontier[1:]
		node := GraphNode{
			ID:     len(g.Nodes),
			Parent: cur.parent,
			PC:     cur.state.PC,
			Steps:  cur.state.Steps,
			Output: cur.state.OutputString(),
			Label:  spec.Program.Locate(cur.state.PC),
		}
		if !cur.state.Running() {
			node.Outcome = cur.state.Outcome().String()
			if cur.state.Exc != nil {
				node.Label = cur.state.Exc.Error()
			}
		}
		g.Nodes = append(g.Nodes, node)
		if !cur.state.Running() {
			continue
		}
		for _, succ := range cur.state.Successors() {
			frontier = append(frontier, workItem{state: succ, parent: node.ID})
		}
	}
	return g, nil
}

// Terminals returns the terminal nodes.
func (g *Graph) Terminals() []GraphNode {
	var out []GraphNode
	for _, n := range g.Nodes {
		if n.Outcome != "" {
			out = append(out, n)
		}
	}
	return out
}

// Path returns the node IDs from a root to the given node, inclusive.
func (g *Graph) Path(id int) []int {
	var rev []int
	for cur := id; cur >= 0; cur = g.Nodes[cur].Parent {
		rev = append(rev, cur)
	}
	out := make([]int, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// DOT renders the graph in Graphviz dot syntax: terminal nodes are boxes
// colored by outcome, interior nodes are points labelled by code location.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph symplfied {\n")
	fmt.Fprintf(&b, "  label=%q;\n", g.Injection.String())
	b.WriteString("  rankdir=TB;\n  node [fontsize=9];\n")
	for _, n := range g.Nodes {
		switch {
		case n.Outcome == "":
			fmt.Fprintf(&b, "  n%d [shape=ellipse, label=%q];\n", n.ID, fmt.Sprintf("%s\\nstep %d", n.Label, n.Steps))
		default:
			color := map[string]string{
				"normal":   "palegreen",
				"crash":    "lightcoral",
				"hang":     "khaki",
				"detected": "lightblue",
			}[n.Outcome]
			if color == "" {
				color = "white"
			}
			fmt.Fprintf(&b, "  n%d [shape=box, style=filled, fillcolor=%s, label=%q];\n",
				n.ID, color, fmt.Sprintf("%s\\n%s\\nout: %s", n.Outcome, n.Label, n.Output))
		}
		if n.Parent >= 0 {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", n.Parent, n.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
