// Package tcas reproduces the paper's case-study application (Section 6): the
// Siemens-suite TCAS (Traffic alert and Collision Avoidance System) altitude
// separation advisory logic. It provides a faithful Go oracle of tcas.c and
// an assembly-language version with a genuine runtime stack and jal/jr
// call discipline, so that the paper's catastrophic scenario — a transient
// error corrupting the return address in Non_Crossing_Biased_Climb that
// redirects control to the "alt_sep = DOWNWARD_RA" assignment in
// alt_sep_test, turning an upward advisory (1) into a downward advisory
// (2) — is expressible and discoverable.
//
// The program reads 12 input parameters and prints a single advisory:
// 0 (unresolved), 1 (upward RA) or 2 (downward RA).
package tcas

import (
	"fmt"
	"sync"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
)

// TCAS constants (tcas.c).
const (
	OLEV       = 600 // in feets/minute
	MAXALTDIFF = 600 // max altitude difference in feet
	MINSEP     = 300 // min separation in feet
	NOZCROSS   = 100 // in feet

	NoIntent     = 0
	DoNotClimb   = 1
	DoNotDescend = 2

	TCASTA = 1
	Other  = 2

	Unresolved = 0
	UpwardRA   = 1
	DownwardRA = 2
)

// positiveRAAltThresh is tcas.c's Positive_RA_Alt_Thresh table.
var positiveRAAltThresh = [4]int64{400, 500, 640, 740}

// Inputs are the 12 parameters, in the program's read order.
type Inputs struct {
	CurVerticalSep         int64
	HighConfidence         int64
	TwoOfThreeReportsValid int64
	OwnTrackedAlt          int64
	OwnTrackedAltRate      int64
	OtherTrackedAlt        int64
	AltLayerValue          int64 // 0..3
	UpSeparation           int64
	DownSeparation         int64
	OtherRAC               int64
	OtherCapability        int64
	ClimbInhibit           int64
}

// Slice returns the inputs in read order.
func (in Inputs) Slice() []int64 {
	return []int64{
		in.CurVerticalSep, in.HighConfidence, in.TwoOfThreeReportsValid,
		in.OwnTrackedAlt, in.OwnTrackedAltRate, in.OtherTrackedAlt,
		in.AltLayerValue, in.UpSeparation, in.DownSeparation,
		in.OtherRAC, in.OtherCapability, in.ClimbInhibit,
	}
}

// UpwardInput is the experiment input (Section 6.1): a configuration for
// which the fault-free execution produces the upward advisory (1).
func UpwardInput() Inputs {
	return Inputs{
		CurVerticalSep:         601,
		HighConfidence:         1,
		TwoOfThreeReportsValid: 1,
		OwnTrackedAlt:          500,
		OwnTrackedAltRate:      600,
		OtherTrackedAlt:        600,
		AltLayerValue:          0,
		UpSeparation:           740,
		DownSeparation:         399,
		OtherRAC:               NoIntent,
		OtherCapability:        TCASTA,
		ClimbInhibit:           0,
	}
}

// Oracle is the reference implementation of tcas.c's alt_sep_test over the
// given inputs (exactly the code in the paper's Figure 4 and its callees).
func Oracle(in Inputs) int64 {
	ownBelowThreat := func() bool { return in.OwnTrackedAlt < in.OtherTrackedAlt }
	ownAboveThreat := func() bool { return in.OtherTrackedAlt < in.OwnTrackedAlt }
	alim := func() int64 { return positiveRAAltThresh[in.AltLayerValue] }
	inhibitBiasedClimb := func() int64 {
		if in.ClimbInhibit != 0 {
			return in.UpSeparation + NOZCROSS
		}
		return in.UpSeparation
	}
	nonCrossingBiasedClimb := func() bool {
		upwardPreferred := inhibitBiasedClimb() > in.DownSeparation
		if upwardPreferred {
			return !ownBelowThreat() || (ownBelowThreat() && !(in.DownSeparation >= alim()))
		}
		return ownAboveThreat() && in.CurVerticalSep >= MINSEP && in.UpSeparation >= alim()
	}
	nonCrossingBiasedDescend := func() bool {
		upwardPreferred := inhibitBiasedClimb() > in.DownSeparation
		if upwardPreferred {
			return ownBelowThreat() && in.CurVerticalSep >= MINSEP && in.DownSeparation >= alim()
		}
		return !ownAboveThreat() || (ownAboveThreat() && in.UpSeparation >= alim())
	}

	enabled := in.HighConfidence != 0 && in.OwnTrackedAltRate <= OLEV && in.CurVerticalSep > MAXALTDIFF
	tcasEquipped := in.OtherCapability == TCASTA
	intentNotKnown := in.TwoOfThreeReportsValid != 0 && in.OtherRAC == NoIntent

	altSep := int64(Unresolved)
	if enabled && ((tcasEquipped && intentNotKnown) || !tcasEquipped) {
		needUpwardRA := nonCrossingBiasedClimb() && ownBelowThreat()
		needDownwardRA := nonCrossingBiasedDescend() && ownAboveThreat()
		switch {
		case needUpwardRA && needDownwardRA:
			altSep = Unresolved
		case needUpwardRA:
			altSep = UpwardRA
		case needDownwardRA:
			altSep = DownwardRA
		default:
			altSep = Unresolved
		}
	}
	return altSep
}

// Memory layout of the assembly program: the 12 globals live at words
// 100..111 (read order), the Positive_RA_Alt_Thresh table at 120..123, the
// stack top starts at word 10000 and grows downward.
const (
	GlobalBase = 100
	TableBase  = 120
	StackTop   = 10000
)

// Source is the assembly program. Calling convention: result in $2, return
// address in $31 (written by jal), stack pointer in $29. Non-leaf functions
// save $31 in their frame and restore it in the epilogue before jr — like
// MIPS gcc output, which is what makes the paper's catastrophic corruption
// of $31 at the "jr $31" of Non_Crossing_Biased_Climb reachable.
const Source = `
-- ============================== main ==============================
main:	li $29 10000            -- stack pointer
	read $8
	st $8 100($0)           -- Cur_Vertical_Sep
	read $8
	st $8 101($0)           -- High_Confidence
	read $8
	st $8 102($0)           -- Two_of_Three_Reports_Valid
	read $8
	st $8 103($0)           -- Own_Tracked_Alt
	read $8
	st $8 104($0)           -- Own_Tracked_Alt_Rate
	read $8
	st $8 105($0)           -- Other_Tracked_Alt
	read $8
	st $8 106($0)           -- Alt_Layer_Value
	read $8
	st $8 107($0)           -- Up_Separation
	read $8
	st $8 108($0)           -- Down_Separation
	read $8
	st $8 109($0)           -- Other_RAC
	read $8
	st $8 110($0)           -- Other_Capability
	read $8
	st $8 111($0)           -- Climb_Inhibit
	li $8 400               -- Positive_RA_Alt_Thresh[0..3]
	st $8 120($0)
	li $8 500
	st $8 121($0)
	li $8 640
	st $8 122($0)
	li $8 740
	st $8 123($0)
	jal alt_sep_test
	print $2
	halt

-- ========================== alt_sep_test ==========================
-- Frame: 0($29)=saved $31, 1($29)=need_upward_RA, 2($29)=NCBD result
alt_sep_test:
	subi $29 $29 4
	st $31 0($29)
	ld $8 101($0)           -- High_Confidence
	beq $8 0 AST_unresolved
	ld $8 104($0)           -- Own_Tracked_Alt_Rate
	setle $9 $8 600         -- <= OLEV
	beq $9 0 AST_unresolved
	ld $8 100($0)           -- Cur_Vertical_Sep
	setgt $9 $8 600         -- > MAXALTDIFF
	beq $9 0 AST_unresolved
	ld $8 110($0)           -- Other_Capability
	seteq $10 $8 1          -- tcas_equipped
	beq $10 0 AST_go        -- !tcas_equipped: condition holds
	ld $8 102($0)           -- Two_of_Three_Reports_Valid
	beq $8 0 AST_unresolved
	ld $8 109($0)           -- Other_RAC
	beq $8 0 AST_go         -- == NO_INTENT: intent_not_known
	jmp AST_unresolved
AST_go:
	jal Non_Crossing_Biased_Climb
	st $2 1($29)
	jal Own_Below_Threat
	ld $8 1($29)
	and $9 $8 $2            -- need_upward_RA
	st $9 1($29)
	jal Non_Crossing_Biased_Descend
	st $2 2($29)
	jal Own_Above_Threat
	ld $8 2($29)
	and $9 $8 $2            -- need_downward_RA
	ld $10 1($29)           -- need_upward_RA
	and $11 $10 $9
	bne $11 0 AST_unresolved -- both needed: unresolved
	beq $10 0 AST_check_down
	li $2 1                 -- alt_sep = UPWARD_RA
	jmp AST_done
AST_check_down:
	beq $9 0 AST_unresolved
AST_downward:
	li $2 2                 -- alt_sep = DOWNWARD_RA
	jmp AST_done
AST_unresolved:
	li $2 0                 -- alt_sep = UNRESOLVED
AST_done:
	ld $31 0($29)
	addi $29 $29 4
	jr $31

-- ================= Non_Crossing_Biased_Climb ======================
NCBC:
Non_Crossing_Biased_Climb:
	subi $29 $29 2
	st $31 0($29)
	jal Inhibit_Biased_Climb
	ld $8 108($0)           -- Down_Separation
	setgt $9 $2 $8          -- upward_preferred
	beq $9 0 NCBC_else
	jal Own_Below_Threat
	beq $2 0 NCBC_true      -- !Own_Below_Threat(): result 1
	jal ALIM
	ld $8 108($0)           -- Down_Separation
	setge $9 $8 $2          -- Down_Separation >= ALIM()
	beq $9 0 NCBC_true      -- negated: result 1
	jmp NCBC_false
NCBC_else:
	jal Own_Above_Threat
	beq $2 0 NCBC_false
	ld $8 100($0)           -- Cur_Vertical_Sep
	setge $9 $8 300         -- >= MINSEP
	beq $9 0 NCBC_false
	jal ALIM
	ld $8 107($0)           -- Up_Separation
	setge $9 $8 $2
	beq $9 0 NCBC_false
NCBC_true:
	li $2 1
	jmp NCBC_done
NCBC_false:
	li $2 0
NCBC_done:
	ld $31 0($29)
	addi $29 $29 2
	jr $31

-- ================ Non_Crossing_Biased_Descend =====================
NCBD:
Non_Crossing_Biased_Descend:
	subi $29 $29 2
	st $31 0($29)
	jal Inhibit_Biased_Climb
	ld $8 108($0)           -- Down_Separation
	setgt $9 $2 $8          -- upward_preferred
	beq $9 0 NCBD_else
	jal Own_Below_Threat
	beq $2 0 NCBD_false
	ld $8 100($0)           -- Cur_Vertical_Sep
	setge $9 $8 300
	beq $9 0 NCBD_false
	jal ALIM
	ld $8 108($0)           -- Down_Separation
	setge $9 $8 $2
	beq $9 0 NCBD_false
	jmp NCBD_true
NCBD_else:
	jal Own_Above_Threat
	beq $2 0 NCBD_true      -- !Own_Above_Threat(): result 1
	jal ALIM
	ld $8 107($0)           -- Up_Separation
	setge $9 $8 $2
	beq $9 0 NCBD_false
NCBD_true:
	li $2 1
	jmp NCBD_done
NCBD_false:
	li $2 0
NCBD_done:
	ld $31 0($29)
	addi $29 $29 2
	jr $31

-- ===================== leaf functions =============================
Own_Below_Threat:
	ld $8 103($0)           -- Own_Tracked_Alt
	ld $9 105($0)           -- Other_Tracked_Alt
	setlt $2 $8 $9
	jr $31

Own_Above_Threat:
	ld $8 105($0)           -- Other_Tracked_Alt
	ld $9 103($0)           -- Own_Tracked_Alt
	setlt $2 $8 $9
	jr $31

ALIM:
	ld $8 106($0)           -- Alt_Layer_Value
	addi $8 $8 120          -- &Positive_RA_Alt_Thresh[v]
	ld $2 0($8)
	jr $31

Inhibit_Biased_Climb:
	ld $8 111($0)           -- Climb_Inhibit
	ld $2 107($0)           -- Up_Separation
	beq $8 0 IBC_done
	addi $2 $2 100          -- + NOZCROSS
IBC_done:
	jr $31
`

// Program returns the tcas application, assembled once: a Program is
// immutable, so every caller (each campaign a long-running service builds,
// say) shares the one copy.
func Program() *isa.Program { return program() }

var program = sync.OnceValue(func() *isa.Program { return asm.MustParse("tcas", Source).Program })

// ReturnJrPC locates the "jr $31" return of the function starting at label
// fn: the paper's catastrophic injection point when fn is
// Non_Crossing_Biased_Climb.
func ReturnJrPC(prog *isa.Program, fn string) (int, error) {
	start, ok := prog.Labels[fn]
	if !ok {
		return 0, fmt.Errorf("tcas: no label %q", fn)
	}
	for pc := start; pc < prog.Len(); pc++ {
		in := prog.At(pc)
		if in.Op == isa.OpJr && in.Rs == isa.RegRA {
			return pc, nil
		}
	}
	return 0, fmt.Errorf("tcas: no jr $31 after label %q", fn)
}

// DownwardAssignPC locates the "alt_sep = DOWNWARD_RA" assignment (label
// AST_downward), the landing site of the catastrophic control transfer.
func DownwardAssignPC(prog *isa.Program) (int, error) {
	pc, ok := prog.Labels["AST_downward"]
	if !ok {
		return 0, fmt.Errorf("tcas: no AST_downward label")
	}
	return pc, nil
}
