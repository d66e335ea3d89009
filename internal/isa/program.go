package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Program is an immutable sequence of instructions plus its label table.
// Instruction addresses are instruction indices; the program counter ranges
// over [0, len(Instrs)). Following the paper's machine-model assumptions
// (Section 5.1), program text cannot be overwritten during execution, and a
// fetch from an address outside the valid range raises an "illegal
// instruction" exception.
type Program struct {
	Name   string
	Instrs []Instr
	Labels map[string]int // label -> instruction index

	labelsAt map[int][]string // instruction index -> labels (for rendering)
	code     []Lowered        // Instrs lowered once, index for index
	// nearest[pc] is the index of the closest label at or before pc, -1
	// when there is none; pc ranges over [0, len(Instrs)].
	nearest []int
	locs    []string // Locate's rendering of every valid pc
}

// NewProgram assembles a program from resolved instructions and labels. Every
// branch target must already be resolved (Target set) or resolvable through
// labels; NewProgram resolves Label fields, validates targets and lowers the
// instructions once into the op array Code returns.
func NewProgram(name string, instrs []Instr, labels map[string]int) (*Program, error) {
	p := &Program{
		Name:   name,
		Instrs: make([]Instr, len(instrs)),
		Labels: make(map[string]int, len(labels)),
	}
	copy(p.Instrs, instrs)
	for l, idx := range labels {
		if idx < 0 || idx > len(instrs) {
			return nil, fmt.Errorf("program %q: label %q points outside code (%d)", name, l, idx)
		}
		p.Labels[l] = idx
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if !in.Op.Valid() {
			return nil, fmt.Errorf("program %q: instruction %d has invalid opcode", name, i)
		}
		if in.IsBranch() {
			if in.Label != "" {
				idx, ok := p.Labels[in.Label]
				if !ok {
					return nil, fmt.Errorf("program %q: instruction %d references undefined label %q", name, i, in.Label)
				}
				in.Target = idx
			}
			if in.Target < 0 || in.Target >= len(p.Instrs) {
				return nil, fmt.Errorf("program %q: instruction %d branches to invalid target %d", name, i, in.Target)
			}
		}
	}
	p.labelsAt = make(map[int][]string, len(p.Labels))
	for l, idx := range p.Labels {
		p.labelsAt[idx] = append(p.labelsAt[idx], l)
	}
	for _, ls := range p.labelsAt {
		sort.Strings(ls)
	}
	p.nearest = make([]int, len(p.Instrs)+1)
	best := -1
	for pc := range p.nearest {
		if _, ok := p.labelsAt[pc]; ok {
			best = pc
		}
		p.nearest[pc] = best
	}
	p.locs = make([]string, len(p.Instrs))
	for pc := range p.locs {
		p.locs[pc] = p.locate(pc)
	}
	p.code = make([]Lowered, len(p.Instrs))
	for i, in := range p.Instrs {
		p.code[i] = Lower(in)
	}
	return p, nil
}

// Code returns the pre-decoded op array: Code()[pc] is Instrs[pc] lowered.
// The slice is shared and must not be modified.
func (p *Program) Code() []Lowered { return p.code }

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// ValidPC reports whether pc addresses an instruction.
func (p *Program) ValidPC(pc int) bool { return pc >= 0 && pc < len(p.Instrs) }

// At returns the instruction at pc. It must only be called with a valid pc.
func (p *Program) At(pc int) Instr { return p.Instrs[pc] }

// LabelsAt returns the labels attached to the given instruction index, sorted.
func (p *Program) LabelsAt(pc int) []string { return p.labelsAt[pc] }

// LabelFor returns the closest label at or before pc along with the offset
// from it, for human-readable locations like "loop+2"; of several labels on
// one instruction it picks the alphabetically first. It returns ok=false
// when no label precedes pc.
func (p *Program) LabelFor(pc int) (label string, offset int, ok bool) {
	if pc < 0 {
		return "", 0, false
	}
	best := p.nearest[min(pc, len(p.Instrs))]
	if best < 0 {
		return "", 0, false
	}
	return p.labelsAt[best][0], pc - best, true
}

// Locate renders a human-readable code location for pc. Valid pcs are
// rendered once, by NewProgram.
func (p *Program) Locate(pc int) string {
	if !p.ValidPC(pc) {
		return fmt.Sprintf("@%d(invalid)", pc)
	}
	return p.locs[pc]
}

func (p *Program) locate(pc int) string {
	if label, off, ok := p.LabelFor(pc); ok {
		if off == 0 {
			return fmt.Sprintf("%s (@%d)", label, pc)
		}
		return fmt.Sprintf("%s+%d (@%d)", label, off, pc)
	}
	return fmt.Sprintf("@%d", pc)
}

// String renders the program as assembly text. The output parses back to an
// equivalent program with the internal/asm assembler.
func (p *Program) String() string {
	var b strings.Builder
	for i, in := range p.Instrs {
		for _, l := range p.labelsAt[i] {
			b.WriteString(l)
			b.WriteString(":\n")
		}
		b.WriteString("\t")
		b.WriteString(in.String())
		b.WriteString("\n")
	}
	for _, l := range p.labelsAt[len(p.Instrs)] {
		b.WriteString(l)
		b.WriteString(":\n")
	}
	return b.String()
}
