package trace

import (
	"strings"
	"testing"

	"symplfied/internal/isa"
	"symplfied/internal/symbolic"
)

func TestEmptyTrace(t *testing.T) {
	var n *Node
	if n.Len() != 0 {
		t.Errorf("empty Len = %d", n.Len())
	}
	if n.Events() != nil {
		t.Errorf("empty Events = %v", n.Events())
	}
	if n.Render() != "" {
		t.Errorf("empty Render = %q", n.Render())
	}
}

func TestAppendAndOrder(t *testing.T) {
	var n *Node
	n = n.Append(Event{Kind: KindInject, Step: 1, Text: "a"})
	n = n.Append(Event{Kind: KindFork, Step: 2, Text: "b"})
	n = n.Append(Event{Kind: KindHalt, Step: 3, Text: "c"})
	if n.Len() != 3 {
		t.Fatalf("Len = %d", n.Len())
	}
	evs := n.Events()
	if evs[0].Text != "a" || evs[1].Text != "b" || evs[2].Text != "c" {
		t.Fatalf("order wrong: %v", evs)
	}
}

func TestForkSharing(t *testing.T) {
	var base *Node
	base = base.Append(Event{Kind: KindInject, Text: "shared"})
	left := base.Append(Event{Kind: KindFork, Text: "left"})
	right := base.Append(Event{Kind: KindFork, Text: "right"})

	if base.Len() != 1 {
		t.Error("base mutated by fork appends")
	}
	le, re := left.Events(), right.Events()
	if le[0].Text != "shared" || re[0].Text != "shared" {
		t.Error("shared prefix lost")
	}
	if le[1].Text != "left" || re[1].Text != "right" {
		t.Error("branch events wrong")
	}
}

func TestRender(t *testing.T) {
	var n *Node
	n = n.Append(Event{Kind: KindConstraint, Step: 4, PC: 7, Text: "x > 1"})
	out := n.Render()
	for _, want := range []string{"step 4", "@7", "constraint", "x > 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render %q lacks %q", out, want)
		}
	}
}

// TestKindTextCompat: records written before kinds were named on the wire
// carried bare integers, which must still decode — but only inside the
// defined range. A corrupt or hand-edited record must be rejected, not
// decoded into a kind String() cannot name.
func TestKindTextCompat(t *testing.T) {
	var k Kind
	if err := k.UnmarshalText([]byte("2")); err != nil || k != KindFork {
		t.Errorf("legacy in-range integer: got %v, %v", k, err)
	}
	if err := k.UnmarshalText([]byte("halt")); err != nil || k != KindHalt {
		t.Errorf("named kind: got %v, %v", k, err)
	}
	for _, bad := range []string{"0", "-1", "99", "gibberish"} {
		if err := k.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("invalid kind %q accepted", bad)
		}
	}
}

func TestKindNames(t *testing.T) {
	kinds := []Kind{
		KindInject, KindFork, KindConstraint, KindDetect, KindCheckPass,
		KindException, KindHalt, KindOutput, KindControl, KindNote,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d lacks a name", int(k))
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
}

// TestBatchCellSharedByForks: a disequality batch is one cell that counts,
// and renders, as one event per value, in order, under every fork that
// extends it.
func TestBatchCellSharedByForks(t *testing.T) {
	var base *Node
	base = base.Append(Event{Kind: KindInject, Step: 1, PC: 2, Text: "inject"})
	vals := []int64{100, 200, 300}
	batch := base.Add(KindConstraint, 3, 4, NotIn(Reason("address not defined"), symbolic.Term{Root: 2, Coeff: 1, Off: 1}, vals, 4))
	exc := &isa.Exception{Kind: isa.ExcIllegalAddr, PC: 4, Detail: "load through erroneous pointer"}
	left := batch.Add(KindException, 3, 4, Exception(exc))
	right := batch.Add(KindFork, 3, 4, Text("right"))
	empty := right.Add(KindConstraint, 3, 4, NotIn(Reason("none"), symbolic.FreshTerm(0), nil, 0))

	for name, tc := range map[string]struct {
		n    *Node
		want int
	}{"base": {base, 1}, "batch": {batch, 4}, "left": {left, 5}, "right": {right, 5}, "empty": {empty, 5}} {
		if got := tc.n.Len(); got != tc.want || len(tc.n.Events()) != got {
			t.Errorf("%s: Len %d, len(Events()) %d, want %d", name, got, len(tc.n.Events()), tc.want)
		}
	}
	want := []string{
		"[step 1 @2] inject: inject",
		"[step 3 @4] constraint: address not defined: e#2+1 =/= 96",
		"[step 3 @4] constraint: address not defined: e#2+1 =/= 196",
		"[step 3 @4] constraint: address not defined: e#2+1 =/= 296",
	}
	for name, n := range map[string]*Node{"left": left, "right": right} {
		evs := n.Events()
		for i, w := range want {
			if got := evs[i].String(); got != w {
				t.Errorf("%s event %d = %q, want %q", name, i, got, w)
			}
		}
	}
	if got := left.Events()[4].Text; got != "illegal addr (load through erroneous pointer) at @4" {
		t.Errorf("left exception text %q", got)
	}
	if got := right.Events()[4].Text; got != "right" {
		t.Errorf("right fork text %q", got)
	}
}
