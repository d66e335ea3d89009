package isa_test

import (
	"fmt"
	"testing"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/isa"
)

// scanLabelFor is the reference LabelFor: a scan of the whole label map for
// the closest label at or before pc, ties broken alphabetically.
func scanLabelFor(p *isa.Program, pc int) (label string, offset int, ok bool) {
	best := -1
	for l, idx := range p.Labels {
		if idx <= pc && (idx > best || (idx == best && l < label)) {
			best, label, ok = idx, l, true
		}
	}
	if !ok {
		return "", 0, false
	}
	return label, pc - best, true
}

// scanLocate renders a location from scanLabelFor.
func scanLocate(p *isa.Program, pc int) string {
	if !p.ValidPC(pc) {
		return fmt.Sprintf("@%d(invalid)", pc)
	}
	if label, off, ok := scanLabelFor(p, pc); ok {
		if off == 0 {
			return fmt.Sprintf("%s (@%d)", label, pc)
		}
		return fmt.Sprintf("%s+%d (@%d)", label, off, pc)
	}
	return fmt.Sprintf("@%d", pc)
}

// TestLocateTableMatchesScan pins the precomputed location table to the
// label-map scan on every pc (and a few beyond either end) of tcas, replace,
// a label-free program and one with several labels on one instruction.
func TestLocateTableMatchesScan(t *testing.T) {
	b := isa.NewBuilder("labelled")
	b.Label("zeta")
	b.Label("alpha")
	b.Nop()
	b.Nop()
	b.Label("mid")
	b.Halt()
	b.Label("end")
	bare := isa.NewBuilder("bare")
	bare.Nop()
	bare.Halt()
	progs := []*isa.Program{tcas.Program(), replace.Program(), bare.MustBuild(), b.MustBuild()}
	for _, p := range progs {
		for pc := -2; pc <= p.Len()+2; pc++ {
			if got, want := p.Locate(pc), scanLocate(p, pc); got != want {
				t.Errorf("%s: Locate(%d) = %q, want %q", p.Name, pc, got, want)
			}
			l, off, ok := p.LabelFor(pc)
			wl, woff, wok := scanLabelFor(p, pc)
			if l != wl || off != woff || ok != wok {
				t.Errorf("%s: LabelFor(%d) = %q+%d %v, want %q+%d %v", p.Name, pc, l, off, ok, wl, woff, wok)
			}
		}
	}
}
