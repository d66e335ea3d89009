// Package fuzzprog decodes fuzzer byte strings into small valid programs for
// the differential fuzz targets, which run one program two ways and require
// the same result: the concrete machine against the symbolic step
// (internal/crossval), and the checker's concrete tails against a stepwise
// explorer (internal/checker). Every byte string decodes to a program that
// assembles, so the fuzzer spends no inputs on parse errors.
package fuzzprog

import (
	"fmt"

	"symplfied/internal/detector"
	"symplfied/internal/isa"
)

// MaxLen is the most instructions a program has before its closing halt.
const MaxLen = 48

// Input is the input stream the fuzz targets run their programs on: it
// holds a zero, a negative and a value past 32 bits, and a program that
// reads more raises end of input.
var Input = []int64{3, -7, 0, 1 << 40}

// Program decodes data into a program of at most MaxLen instructions and a
// closing halt, and the detector table its CHECKs refer to. Every
// instruction slot carries a label, so branch and call targets always
// resolve, backward ones included; the watchdog turns runaway loops into
// hangs. The mix reaches every exception the machine raises on err-free
// operands: division by zero, end of input, a load from an undefined word,
// throw, a jr to a code address outside the program, a CHECK that fires,
// one whose target word is undefined and one naming no detector. Bytes 0xf0
// to 0xf5 decode to the instructions of a stack frame on $29 and $31 —
// allocate, save, call, reload, free, return — so calls can save their
// return address, and a return into a function past its allocation walks
// the stack a frame per lap.
func Program(data []byte) (*isa.Program, *detector.Table) {
	b := isa.NewBuilder("fuzz")
	n := min(len(data), MaxLen)
	at := func(j int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[j%len(data)]
	}
	reg := func(j int) isa.Reg { return isa.Reg(1 + at(j)%5) }
	for i := 0; i < n; i++ {
		b.Label(fmt.Sprintf("L%d", i))
		imm := int64(int8(at(i*7 + 1)))
		r1, r2, r3 := reg(i*3+1), reg(i*3+2), reg(i*3+3)
		target := fmt.Sprintf("L%d", int(at(i*5+2))%(n+1))
		if op := at(i); op >= 0xf0 && op <= 0xf5 {
			stackOp(b, op-0xf0, 1+int64(at(i*7+1)%4), int64(at(i*11+4)%4), r1, at(i*3+4)%2 == 0, target)
			continue
		}
		switch at(i) % 20 {
		case 0:
			b.Li(r1, imm)
		case 1:
			b.Add(r1, r2, r3)
		case 2:
			b.Sub(r1, r2, r3)
		case 3:
			b.Mult(r1, r2, r3)
		case 4:
			b.Div(r1, r2, r3)
		case 5:
			b.Addi(r1, r2, imm)
		case 6:
			b.Seteq(r1, r2, r3)
		case 7:
			b.Setgt(r1, r2, r3)
		case 8:
			b.Read(r1)
		case 9:
			b.Print(r1)
		case 10:
			b.Prints(fmt.Sprintf("s%d", at(i*7+3)%10))
		case 11:
			b.Beqi(r1, imm, target)
		case 12:
			b.Bne(r1, r2, target)
		case 13:
			b.St(r1, int64(at(i*11+4)%16), isa.Reg(0))
		case 14:
			b.Ld(r1, int64(at(i*11+4)%16), isa.Reg(0))
		case 15:
			b.Jmp(target)
		case 16:
			b.Jal(target)
		case 17:
			// A return through $31 or a jump through a data register,
			// which may hold any value.
			if at(i*3+4)%2 == 0 {
				b.Jr(isa.RegRA)
			} else {
				b.Jr(r1)
			}
		case 18:
			// A code address two below the program to two past its halt.
			b.Li(r1, int64(at(i*7+1))%int64(n+5)-2)
		default:
			b.Check(1 + int64(at(i*13+5)%4))
		}
	}
	b.Label(fmt.Sprintf("L%d", n))
	b.Halt()
	return b.MustBuild(), detectors
}

// stackOp emits stack-frame instruction op (0 to 5): subi or addi of size
// on $29, a st or ld of $31 (ra) or r at offset off($29), a jal to target,
// or a jr $31.
func stackOp(b *isa.Builder, op byte, size, off int64, r isa.Reg, ra bool, target string) {
	if ra {
		r = isa.RegRA
	}
	switch op {
	case 0:
		b.Subi(isa.RegSP, isa.RegSP, size)
	case 1:
		b.St(r, off, isa.RegSP)
	case 2:
		b.Jal(target)
	case 3:
		b.Ld(r, off, isa.RegSP)
	case 4:
		b.Addi(isa.RegSP, isa.RegSP, size)
	default:
		b.Jr(isa.RegRA)
	}
}

// detectors is the table of every fuzz program's CHECKs; ID 4 is unknown.
// Detector 3 reads a word that stores at offsets 0..15 may or may not have
// defined.
var detectors = func() *detector.Table {
	mk := func(id int64, target isa.Loc, cmp isa.Cmp, expr detector.Expr) *detector.Detector {
		d, err := detector.New(id, target, cmp, expr)
		if err != nil {
			panic(err)
		}
		return d
	}
	t, err := detector.NewTable(
		mk(1, isa.RegLoc(1), isa.CmpLt, detector.Num(10)),
		mk(2, isa.RegLoc(2), isa.CmpNe, detector.Bin(isa.BinAdd, detector.Reg(3), detector.Num(1))),
		mk(3, isa.MemLoc(4), isa.CmpGt, detector.Num(-5)),
	)
	if err != nil {
		panic(err)
	}
	return t
}()
