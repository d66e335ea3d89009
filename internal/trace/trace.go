// Package trace records the decision history of a symbolic execution path:
// where the error was injected, which way each nondeterministic fork went,
// which constraints were learned, and how the path terminated. The paper
// (Section 5.4) highlights that showing "an execution trace of how the error
// evaded detection and led to the failure" is what makes findings actionable.
//
// Traces are persistent singly-linked lists so that forking a state shares
// the common prefix at zero cost. A cell stores its event's facts, not its
// text: the executor notes an event at every fork and every learned
// constraint, while only the few states that become findings are ever read,
// so the text is rendered when Events is called.
package trace

import (
	"fmt"
	"strconv"
	"strings"

	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symbolic"
)

// Kind classifies a trace event.
type Kind int

// Event kinds.
const (
	KindInject     Kind = iota + 1 // fault injection performed
	KindFork                       // nondeterministic choice taken
	KindConstraint                 // path constraint learned
	KindDetect                     // detector fired
	KindCheckPass                  // detector evaluated and passed
	KindException                  // exception raised
	KindHalt                       // program halted normally
	KindOutput                     // value appended to the output stream
	KindControl                    // control transferred through an erroneous target
	KindNote                       // free-form annotation
)

// MarshalText renders the kind by name so serialized traces stay readable
// and stable across reorderings of the Kind constants.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name; bare integers in the defined range are
// accepted for compatibility with records written before kinds were named on
// the wire. Out-of-range integers (a corrupt or hand-edited record) are
// rejected rather than decoded into a kind String() cannot name.
func (k *Kind) UnmarshalText(text []byte) error {
	s := string(text)
	for cand := KindInject; cand <= KindNote; cand++ {
		if cand.String() == s {
			*k = cand
			return nil
		}
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < int(KindInject) || n > int(KindNote) {
		return fmt.Errorf("trace: unknown event kind %q", s)
	}
	*k = Kind(n)
	return nil
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindFork:
		return "fork"
	case KindConstraint:
		return "constraint"
	case KindDetect:
		return "detect"
	case KindCheckPass:
		return "check-pass"
	case KindException:
		return "exception"
	case KindHalt:
		return "halt"
	case KindOutput:
		return "output"
	case KindControl:
		return "control"
	case KindNote:
		return "note"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded decision.
type Event struct {
	Kind Kind
	Step int    // dynamic instruction count when the event occurred
	PC   int    // program counter at the event
	Text string // human-readable description
}

// String renders the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("[step %d @%d] %s: %s", e.Step, e.PC, e.Kind, e.Text)
}

// Why names what a fork or constraint event is about: the instruction at
// the event's pc, a detector evaluated at the event's pc, or a fixed reason.
type Why struct {
	prog *isa.Program
	det  *detector.Detector
	text string
}

// Instr names the instruction at the event's pc ("beq at main+3 (@7)").
func Instr(p *isa.Program) Why { return Why{prog: p} }

// DetectorAt names detector d evaluated at the event's pc ("detector 2 at
// main+3 (@7)").
func DetectorAt(p *isa.Program, d *detector.Detector) Why { return Why{prog: p, det: d} }

// Reason is a fixed description.
func Reason(text string) Why { return Why{text: text} }

func (w Why) render(pc int) string {
	switch {
	case w.det != nil:
		return "detector " + strconv.FormatInt(w.det.ID, 10) + " at " + w.prog.Locate(pc)
	case w.prog != nil:
		return w.prog.At(pc).Op.String() + " at " + w.prog.Locate(pc)
	}
	return w.text
}

// msg selects how a payload renders.
type msg uint8

const (
	msgText       msg = iota // why.text
	msgInject                // err (e#t.Root) injected into loc at why.prog's pc
	msgStuck                 // fault in loc is permanent (stuck-at)
	msgAssume                // why: assume cmp
	msgConstraint            // why: t cmp n
	msgNotIn                 // one "why: t =/= v-n" event per v in vals
	msgRelation              // why: t cmp u
	msgLoadAt                // load through erroneous pointer resolved to n
	msgStoreAt               // store through erroneous pointer resolved to n
	msgControl               // control transferred ... to why.prog.Locate(n)
	msgCheckPass             // detector why.det passed
	msgDetect                // detector why.det fired
	msgException             // isa.ExceptionKind(n) with detail why.text at the event's pc
	msgHalt                  // halt (output out)
)

// Payload holds the facts one event is rendered from, captured by value. The
// constructors below build one per event shape; none of them formats text.
type Payload struct {
	msg  msg
	cmp  uint8 // an isa.Cmp, narrowed so the small fields share one word
	mem  bool  // msgInject, msgStuck: the location is the memory word n, else register n
	why  Why
	n    int64
	t, u symbolic.Term
	vals []int64
	out  []machine.OutItem
}

// Text is a fixed or already formatted description.
func Text(s string) Payload { return Payload{why: Why{text: s}} }

// Inject records err's root r placed into loc at the event's pc of p.
func Inject(p *isa.Program, r symbolic.RootID, loc isa.Loc) Payload {
	out := locPayload(msgInject, loc)
	out.why.prog = p
	out.t.Root = r
	return out
}

// Stuck records that the fault in loc is permanent.
func Stuck(loc isa.Loc) Payload { return locPayload(msgStuck, loc) }

func locPayload(m msg, loc isa.Loc) Payload {
	if loc.IsMem {
		return Payload{msg: m, mem: true, n: loc.Addr}
	}
	return Payload{msg: m, n: int64(loc.Reg)}
}

func (p *Payload) loc() isa.Loc {
	if p.mem {
		return isa.MemLoc(p.n)
	}
	return isa.RegLoc(isa.Reg(p.n))
}

// Assume records a fork taking the cmp side of a comparison.
func Assume(why Why, cmp isa.Cmp) Payload { return Payload{msg: msgAssume, why: why, cmp: uint8(cmp)} }

// Constraint records the learned path constraint "t cmp rhs".
func Constraint(why Why, t symbolic.Term, cmp isa.Cmp, rhs int64) Payload {
	return Payload{msg: msgConstraint, why: why, t: t, cmp: uint8(cmp), n: rhs}
}

// NotIn records one learned constraint "t =/= v-sub" per v in vals, in order,
// as a single cell that Len and Events count as len(vals) events. The cell
// keeps vals, which the caller must not modify afterwards.
func NotIn(why Why, t symbolic.Term, vals []int64, sub int64) Payload {
	return Payload{msg: msgNotIn, why: why, t: t, cmp: uint8(isa.CmpNe), n: sub, vals: vals}
}

// Relation records the learned relation "t cmp u" between two roots.
func Relation(why Why, t symbolic.Term, cmp isa.Cmp, u symbolic.Term) Payload {
	return Payload{msg: msgRelation, why: why, t: t, cmp: uint8(cmp), u: u}
}

// LoadAt records a load through an erroneous pointer resolved to addr.
func LoadAt(addr int64) Payload { return Payload{msg: msgLoadAt, n: addr} }

// StoreAt records a store through an erroneous pointer resolved to addr.
func StoreAt(addr int64) Payload { return Payload{msg: msgStoreAt, n: addr} }

// Control records control transferred through an erroneous target to pc of p.
func Control(p *isa.Program, pc int) Payload {
	return Payload{msg: msgControl, why: Why{prog: p}, n: int64(pc)}
}

// CheckPass records detector d passing.
func CheckPass(d *detector.Detector) Payload { return Payload{msg: msgCheckPass, why: Why{det: d}} }

// Detect records detector d firing.
func Detect(d *detector.Detector) Payload { return Payload{msg: msgDetect, why: Why{det: d}} }

// Exception records e, which must have been raised at the event's pc.
func Exception(e *isa.Exception) Payload {
	return Payload{msg: msgException, why: Why{text: e.Detail}, n: int64(e.Kind)}
}

// Halt records a normal halt with output out, which must not change
// afterwards (output streams are append-only).
func Halt(out []machine.OutItem) Payload { return Payload{msg: msgHalt, out: out} }

// events returns how many events p renders as.
func (p *Payload) events() int {
	if p.msg == msgNotIn {
		return len(p.vals)
	}
	return 1
}

// text renders event i (0 unless msgNotIn) of p at pc.
func (p *Payload) text(pc, i int) string {
	switch p.msg {
	case msgInject:
		return fmt.Sprintf("err (e#%d) injected into %s at %s", p.t.Root, p.loc(), p.why.prog.Locate(pc))
	case msgStuck:
		return fmt.Sprintf("fault in %s is permanent (stuck-at)", p.loc())
	case msgAssume:
		return fmt.Sprintf("%s: assume %s", p.why.render(pc), isa.Cmp(p.cmp))
	case msgConstraint:
		return fmt.Sprintf("%s: %s %s %d", p.why.render(pc), p.t, isa.Cmp(p.cmp), p.n)
	case msgNotIn:
		return fmt.Sprintf("%s: %s %s %d", p.why.render(pc), p.t, isa.CmpNe, p.vals[i]-p.n)
	case msgRelation:
		return fmt.Sprintf("%s: %s %s %s", p.why.render(pc), p.t, isa.Cmp(p.cmp), p.u)
	case msgLoadAt:
		return fmt.Sprintf("load through erroneous pointer resolved to %d", p.n)
	case msgStoreAt:
		return fmt.Sprintf("store through erroneous pointer resolved to %d", p.n)
	case msgControl:
		return fmt.Sprintf("control transferred through erroneous target to %s", p.why.prog.Locate(int(p.n)))
	case msgCheckPass:
		return fmt.Sprintf("detector %d passed: %s", p.why.det.ID, p.why.det)
	case msgDetect:
		return fmt.Sprintf("detector %d fired: %s", p.why.det.ID, p.why.det)
	case msgException:
		e := isa.Exception{Kind: isa.ExceptionKind(p.n), PC: pc, Detail: p.why.text}
		return e.Error()
	case msgHalt:
		return fmt.Sprintf("halt (output %q)", machine.RenderOutput(p.out))
	}
	return p.why.text
}

// Node is an immutable trace cell. A nil *Node is the empty trace.
type Node struct {
	parent *Node
	depth  int32 // events from the first cell through this one
	kind   uint8 // a Kind, narrowed to share depth's word
	step   int
	pc     int
	p      Payload
}

// Add extends the trace with one cell noted at step and pc, returning the new
// head; the cell counts as p's number of events. The receiver is unmodified,
// so sibling forks share their prefix.
func (n *Node) Add(kind Kind, step, pc int, p Payload) *Node {
	d := int32(p.events())
	if n != nil {
		d += n.depth
	}
	return &Node{parent: n, depth: d, kind: uint8(kind), step: step, pc: pc, p: p}
}

// Append extends the trace with an already rendered event.
func (n *Node) Append(ev Event) *Node { return n.Add(ev.Kind, ev.Step, ev.PC, Text(ev.Text)) }

// Len returns the number of events.
func (n *Node) Len() int {
	if n == nil {
		return 0
	}
	return int(n.depth)
}

// Events renders the events oldest-first.
func (n *Node) Events() []Event {
	if n == nil {
		return nil
	}
	out := make([]Event, n.depth)
	for cur := n; cur != nil; cur = cur.parent {
		k := cur.p.events()
		first := int(cur.depth) - k
		for i := 0; i < k; i++ {
			out[first+i] = Event{Kind: Kind(cur.kind), Step: cur.step, PC: cur.pc, Text: cur.p.text(cur.pc, i)}
		}
	}
	return out
}

// Render formats the whole trace, one event per line, oldest first.
func (n *Node) Render() string {
	evs := n.Events()
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}
