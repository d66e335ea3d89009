package faults

import "symplfied/internal/isa"

// RegisterInjections enumerates the paper's register-error campaign
// (Section 6.1): for each instruction, err in each register the instruction
// reads, injected just before the instruction executes so the fault is
// guaranteed to activate. With sources=false it instead enumerates every
// architectural register at every instruction (the exhaustive 800x32 space
// the optimization prunes).
func RegisterInjections(prog *isa.Program, sources bool) []Injection {
	var out []Injection
	for pc := 0; pc < prog.Len(); pc++ {
		in := prog.At(pc)
		if sources {
			for _, r := range in.SrcRegs() {
				out = append(out, Injection{Class: ClassRegister, PC: pc, Loc: isa.RegLoc(r)})
			}
			continue
		}
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			out = append(out, Injection{Class: ClassRegister, PC: pc, Loc: isa.RegLoc(r)})
		}
	}
	return out
}

// RegisterInjectionsUsed enumerates err in each register an instruction
// uses — sources and destinations, the accounting of the paper's concrete
// campaigns ("source and destination registers of all instructions").
// Destination injections before the write are usually masked; they populate
// the benign bucket, as in the paper.
func RegisterInjectionsUsed(prog *isa.Program) []Injection {
	var out []Injection
	for pc := 0; pc < prog.Len(); pc++ {
		for _, r := range prog.At(pc).UsedRegs() {
			out = append(out, Injection{Class: ClassRegister, PC: pc, Loc: isa.RegLoc(r)})
		}
	}
	return out
}

// MemoryInjections enumerates memory errors activated at loads: for each
// load instruction, err in the word about to be read (the Table 1 cache/
// memory-bus rows: "err in target register of load instructions to the
// location" is subsumed by corrupting the loaded word just before the load).
func MemoryInjections(prog *isa.Program) []Injection {
	var out []Injection
	for pc := 0; pc < prog.Len(); pc++ {
		if prog.At(pc).Op == isa.OpLd {
			out = append(out, Injection{Class: ClassMemory, PC: pc, DynamicLoadAddr: true})
		}
	}
	return out
}

// StaticMemoryInjections enumerates err in each given memory word before
// each given instruction.
func StaticMemoryInjections(pcs []int, addrs []int64) []Injection {
	out := make([]Injection, 0, len(pcs)*len(addrs))
	for _, pc := range pcs {
		for _, a := range addrs {
			out = append(out, Injection{Class: ClassMemory, PC: pc, Loc: isa.MemLoc(a)})
		}
	}
	return out
}

// ControlInjections enumerates instruction-fetch errors: at each instruction,
// the PC is redirected to an arbitrary valid code location (Table 1, fetch
// row). Each Injection expands to prog.Len()-1 states when applied.
func ControlInjections(prog *isa.Program) []Injection {
	out := make([]Injection, 0, prog.Len())
	for pc := 0; pc < prog.Len(); pc++ {
		out = append(out, Injection{Class: ClassControl, PC: pc})
	}
	return out
}

// DecodeInjections enumerates instruction-decoder errors per Table 1:
//
//   - instructions with a destination: the destination is changed to each
//     other register (err in both), and the instruction is replaced by one
//     with no target (err in the original destination);
//   - instructions with no destination: replaced by an instruction writing
//     each register (err in the new wrong target).
//
// Memory-targeted mis-decodes are enumerated for stores (original target =
// the stored-to word is not statically known, so stores contribute the
// lost-target case through their data register instead).
func DecodeInjections(prog *isa.Program) []Injection {
	var out []Injection
	for pc := 0; pc < prog.Len(); pc++ {
		in := prog.At(pc)
		dsts := in.DstRegs()
		if len(dsts) > 0 {
			orig := isa.RegLoc(dsts[0])
			for r := isa.Reg(1); r < isa.NumRegs; r++ {
				if r == dsts[0] {
					continue
				}
				out = append(out, Injection{
					Class: ClassDecode, PC: pc,
					Decode: DecodeChangedTarget,
					Loc:    orig, NewLoc: isa.RegLoc(r),
				})
			}
			out = append(out, Injection{
				Class: ClassDecode, PC: pc,
				Decode: DecodeLostTarget,
				Loc:    orig,
			})
			continue
		}
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			out = append(out, Injection{
				Class: ClassDecode, PC: pc,
				Decode: DecodeNewTarget,
				NewLoc: isa.RegLoc(r),
			})
		}
	}
	return out
}

// ForClass enumerates the injections of a class over prog with the paper's
// default activation policy.
func ForClass(c Class, prog *isa.Program) []Injection {
	switch c {
	case ClassRegister:
		return RegisterInjections(prog, true)
	case ClassMemory:
		return MemoryInjections(prog)
	case ClassControl:
		return ControlInjections(prog)
	case ClassDecode:
		return DecodeInjections(prog)
	}
	return nil
}
