package replace

import (
	"fmt"
	"sync"

	"symplfied/internal/asm"
	"symplfied/internal/isa"
)

// Memory layout of the assembly program.
const (
	ArgPatBase = 200  // raw pattern argument (terminated)
	ArgSubBase = 400  // raw substitution argument (terminated)
	LineBase   = 600  // input line (terminated)
	PatBase    = 800  // encoded pattern
	SubBase    = 1000 // encoded substitution
	StackTop   = 10000
)

// Input encodes a single-line run as the program's input stream: pattern
// codes, terminator, substitution codes, terminator, line count (1), line
// codes (with the Software Tools trailing newline), terminator.
func Input(pattern, substitution, line string) []int64 {
	return InputLines(pattern, substitution, line)
}

// InputLines encodes a multi-line run: the driver's change() loop processes
// each line in turn, exactly like replace.c's main loop over getline.
func InputLines(pattern, substitution string, lines ...string) []int64 {
	var in []int64
	in = append(in, Str(pattern)...)
	in = append(in, Str(substitution)...)
	in = append(in, int64(len(lines)))
	for _, l := range lines {
		in = append(in, Line(l)...)
	}
	return in
}

// Source is the assembly implementation. Calling convention: arguments in
// $4..$6, result in $2, stack pointer $29, return address $31; non-leaf
// functions save $31 in their frame. amatch recurses for closure
// backtracking, exactly like replace.c.
const Source = `
-- =========================== driver ==============================
main:	li $29 10000
	li $16 200              -- read pattern argument
RP_loop:
	read $8
	st $8 0($16)
	addi $16 $16 1
	bne $8 0 RP_loop
	li $16 400              -- read substitution argument
RS_loop:
	read $8
	st $8 0($16)
	addi $16 $16 1
	bne $8 0 RS_loop
	jal makepat
	bne $2 0 MAIN_pat_ok
	li $8 -2                -- illegal pattern marker; proceed regardless
	print $8
MAIN_pat_ok:
	jal makesub
	bne $2 0 MAIN_sub_ok
	li $8 -3                -- illegal substitution marker; proceed regardless
	print $8
MAIN_sub_ok:
	read $17                -- line count: the change() loop over getline
CH_loop:
	setle $8 $17 0
	bne $8 0 CH_done
	li $16 600              -- getline: read one line into the buffer
RL_loop:
	read $8
	st $8 0($16)
	addi $16 $16 1
	bne $8 0 RL_loop
	jal subline
	subi $17 $17 1
	jmp CH_loop
CH_done:
	halt

-- ======================== addstr(c, dest, &j) =====================
-- $4 = c, $5 = dest base, $6 = &j. Appends when j < MAXSTR(100).
addstr:
	ld $8 0($6)
	setlt $9 $8 100
	bne $9 0 AS_ok
	li $2 0
	jr $31
AS_ok:
	add $10 $5 $8
	st $4 0($10)
	addi $8 $8 1
	st $8 0($6)
	li $2 1
	jr $31

-- ========================= esc(base, &i) ==========================
-- $4 = string base, $5 = &i; returns the (possibly escaped) character.
esc:
	ld $8 0($5)
	add $9 $4 $8
	ld $10 0($9)
	seteq $11 $10 64        -- ESCAPE '@'
	beq $11 0 ESC_lit
	ld $12 1($9)
	bne $12 0 ESC_adv
	li $2 64                -- trailing '@' stands for itself
	jr $31
ESC_adv:
	addi $8 $8 1
	st $8 0($5)
	add $9 $4 $8
	ld $10 0($9)
	seteq $11 $10 110       -- 'n'
	beq $11 0 ESC_t
	li $2 10
	jr $31
ESC_t:
	seteq $11 $10 116       -- 't'
	beq $11 0 ESC_lit
	li $2 9
	jr $31
ESC_lit:
	mov $2 $10
	jr $31

-- ========================= isalnum(c) =============================
isalnum:
	setge $8 $4 97
	setle $9 $4 122
	and $10 $8 $9
	bne $10 0 IA_yes
	setge $8 $4 65
	setle $9 $4 90
	and $10 $8 $9
	bne $10 0 IA_yes
	setge $8 $4 48
	setle $9 $4 57
	and $10 $8 $9
	bne $10 0 IA_yes
	li $2 0
	jr $31
IA_yes:
	li $2 1
	jr $31

-- =================== dodash(delim, &i, &j) ========================
-- $4 = delimiter, $5 = &i (into pattern arg at 200), $6 = &j (into pat
-- at 800). Frame: 0 ra, 1 delim, 2 &i, 3 &j, 4 k/prev, 5 next.
dodash:
	subi $29 $29 6
	st $31 0($29)
	st $4 1($29)
	st $5 2($29)
	st $6 3($29)
DD_loop:
	ld $5 2($29)
	ld $8 0($5)
	addi $9 $8 200
	ld $10 0($9)            -- src[i]
	ld $4 1($29)
	beq $10 $4 DD_done      -- src[i] == delim
	beq $10 0 DD_done       -- ENDSTR
	seteq $11 $10 64        -- ESCAPE
	beq $11 0 DD_notesc
	li $4 200
	ld $5 2($29)
	jal esc
	mov $4 $2
	li $5 800
	ld $6 3($29)
	jal addstr
	jmp DD_next
DD_notesc:
	setne $11 $10 45        -- != DASH
	beq $11 0 DD_dash
	mov $4 $10
	li $5 800
	ld $6 3($29)
	jal addstr
	jmp DD_next
DD_dash:
	ld $6 3($29)
	ld $11 0($6)            -- j
	setle $12 $11 1
	bne $12 0 DD_adddash
	ld $5 2($29)
	ld $8 0($5)
	addi $9 $8 200
	ld $12 1($9)            -- src[i+1]
	beq $12 0 DD_adddash
	ld $13 -1($9)           -- src[i-1]
	st $13 4($29)
	st $12 5($29)
	mov $4 $13
	jal isalnum
	beq $2 0 DD_adddash
	ld $4 5($29)
	jal isalnum
	beq $2 0 DD_adddash
	ld $13 4($29)
	ld $12 5($29)
	setle $11 $13 $12       -- prev <= next
	beq $11 0 DD_adddash
	ld $13 4($29)           -- k = prev + 1
	addi $13 $13 1
	st $13 4($29)
DD_range:
	ld $13 4($29)
	ld $12 5($29)
	setgt $11 $13 $12
	bne $11 0 DD_rangedone
	mov $4 $13
	li $5 800
	ld $6 3($29)
	jal addstr
	ld $13 4($29)
	addi $13 $13 1
	st $13 4($29)
	jmp DD_range
DD_rangedone:
	ld $5 2($29)            -- extra advance past range end
	ld $8 0($5)
	addi $8 $8 1
	st $8 0($5)
	jmp DD_next
DD_adddash:
	li $4 45
	li $5 800
	ld $6 3($29)
	jal addstr
DD_next:
	ld $5 2($29)
	ld $8 0($5)
	addi $8 $8 1
	st $8 0($5)
	jmp DD_loop
DD_done:
	ld $31 0($29)
	addi $29 $29 6
	jr $31

-- ====================== getccl(&i, &j) ============================
-- $4 = &i, $5 = &j. Frame: 0 ra, 1 &i, 2 &j, 3 jstart.
getccl:
	subi $29 $29 4
	st $31 0($29)
	st $4 1($29)
	st $5 2($29)
	ld $8 0($4)             -- skip over [
	addi $8 $8 1
	st $8 0($4)
	addi $9 $8 200
	ld $10 0($9)
	seteq $11 $10 94        -- NEGATE '^'
	beq $11 0 GC_ccl
	li $4 33                -- NCCL '!'
	li $5 800
	ld $6 2($29)
	jal addstr
	ld $4 1($29)
	ld $8 0($4)
	addi $8 $8 1
	st $8 0($4)
	jmp GC_after
GC_ccl:
	li $4 91                -- CCL '['
	li $5 800
	ld $6 2($29)
	jal addstr
GC_after:
	ld $6 2($29)
	ld $8 0($6)
	st $8 3($29)            -- jstart = j
	li $4 0                 -- count placeholder
	li $5 800
	ld $6 2($29)
	jal addstr
	li $4 93                -- dodash(CCLEND, &i, &j)
	ld $5 1($29)
	ld $6 2($29)
	jal dodash
	ld $6 2($29)
	ld $8 0($6)
	ld $9 3($29)
	sub $10 $8 $9
	subi $10 $10 1
	addi $11 $9 800
	st $10 0($11)           -- pat[jstart] = j - jstart - 1
	ld $4 1($29)
	ld $8 0($4)
	addi $9 $8 200
	ld $10 0($9)
	seteq $2 $10 93         -- arg[i] == CCLEND
	ld $31 0($29)
	addi $29 $29 4
	jr $31

-- ===================== stclose(&j, lastj) =========================
-- $4 = &j, $5 = lastj. Shifts the closed element up and writes CLOSURE.
stclose:
	ld $8 0($4)
	subi $9 $8 1            -- jt = j - 1
SC_loop:
	setlt $10 $9 $5
	bne $10 0 SC_done
	addi $11 $9 800
	ld $12 0($11)
	st $12 1($11)           -- pat[jt+1] = pat[jt]
	subi $9 $9 1
	jmp SC_loop
SC_done:
	addi $8 $8 1
	st $8 0($4)             -- j += CLOSIZE
	addi $11 $5 800
	li $12 42               -- CLOSURE '*'
	st $12 0($11)
	jr $31

-- ========================= makepat() ==============================
-- Pattern arg at 200, encoded pat at 800, start 0, delim ENDSTR.
-- Frame: 0 ra, 1 i, 2 j, 3 lastj, 4 done, 5 lj, 6 junk.
makepat:
	subi $29 $29 7
	st $31 0($29)
	li $8 0
	st $8 1($29)
	st $8 2($29)
	st $8 3($29)
	st $8 4($29)
MP_loop:
	ld $8 4($29)
	bne $8 0 MP_end
	ld $8 1($29)
	addi $9 $8 200
	ld $10 0($9)            -- arg[i]
	beq $10 0 MP_end
	ld $11 2($29)           -- lj = j
	st $11 5($29)
	seteq $12 $10 63        -- ANY '?'
	bne $12 0 MP_any
	seteq $12 $10 37        -- BOL '%'
	beq $12 0 MP_noBOL
	ld $8 1($29)
	beq $8 0 MP_bol         -- only at i == start
MP_noBOL:
	seteq $12 $10 36        -- EOL '$'
	beq $12 0 MP_noEOL
	ld $12 1($9)
	beq $12 0 MP_eol        -- only right before the delimiter
MP_noEOL:
	seteq $12 $10 91        -- CCL '['
	bne $12 0 MP_ccl
	seteq $12 $10 42        -- CLOSURE '*'
	beq $12 0 MP_lit
	ld $8 1($29)
	setgt $12 $8 0          -- only after the first position
	bne $12 0 MP_clo
	jmp MP_lit
MP_any:
	li $4 63
	li $5 800
	addi $6 $29 2
	jal addstr
	jmp MP_cont
MP_bol:
	li $4 37
	li $5 800
	addi $6 $29 2
	jal addstr
	jmp MP_cont
MP_eol:
	li $4 36
	li $5 800
	addi $6 $29 2
	jal addstr
	jmp MP_cont
MP_ccl:
	addi $4 $29 1
	addi $5 $29 2
	jal getccl
	seteq $8 $2 0           -- done = (getccl failed)
	st $8 4($29)
	jmp MP_cont
MP_clo:
	ld $11 3($29)           -- lj = lastj
	st $11 5($29)
	addi $9 $11 800
	ld $10 0($9)            -- pat[lj]
	seteq $12 $10 37        -- in_set_2: BOL/EOL/CLOSURE cannot close
	bne $12 0 MP_cloBad
	seteq $12 $10 36
	bne $12 0 MP_cloBad
	seteq $12 $10 42
	bne $12 0 MP_cloBad
	addi $4 $29 2
	ld $5 3($29)
	jal stclose
	jmp MP_cont
MP_cloBad:
	li $8 1
	st $8 4($29)            -- done = true
	jmp MP_cont
MP_lit:
	li $4 99                -- LITCHAR 'c'
	li $5 800
	addi $6 $29 2
	jal addstr
	li $4 200
	addi $5 $29 1
	jal esc
	mov $4 $2
	li $5 800
	addi $6 $29 2
	jal addstr
MP_cont:
	ld $11 5($29)           -- lastj = lj
	st $11 3($29)
	ld $8 4($29)
	bne $8 0 MP_loop
	ld $8 1($29)
	addi $8 $8 1
	st $8 1($29)
	jmp MP_loop
MP_end:
	li $4 0                 -- terminate encoded pattern
	li $5 800
	addi $6 $29 2
	jal addstr
	st $2 6($29)
	ld $8 4($29)
	bne $8 0 MP_fail        -- done: error
	ld $8 1($29)
	addi $9 $8 200
	ld $10 0($9)
	bne $10 0 MP_fail       -- stopped before the delimiter
	ld $8 6($29)
	beq $8 0 MP_fail        -- pattern overflow
	ld $2 1($29)            -- result = i
	jmp MP_ret
MP_fail:
	li $2 0
MP_ret:
	ld $31 0($29)
	addi $29 $29 7
	jr $31

-- ========================= makesub() ==============================
-- Substitution arg at 400, encoded sub at 1000.
-- Frame: 0 ra, 1 i, 2 j.
makesub:
	subi $29 $29 3
	st $31 0($29)
	li $8 0
	st $8 1($29)
	st $8 2($29)
MS_loop:
	ld $8 1($29)
	addi $9 $8 400
	ld $10 0($9)
	beq $10 0 MS_end
	seteq $11 $10 38        -- '&' (ditto)
	beq $11 0 MS_esc
	li $4 -1                -- DITTO
	li $5 1000
	addi $6 $29 2
	jal addstr
	jmp MS_next
MS_esc:
	li $4 400
	addi $5 $29 1
	jal esc
	mov $4 $2
	li $5 1000
	addi $6 $29 2
	jal addstr
MS_next:
	ld $8 1($29)
	addi $8 $8 1
	st $8 1($29)
	jmp MS_loop
MS_end:
	li $4 0
	li $5 1000
	addi $6 $29 2
	jal addstr
	beq $2 0 MS_fail
	ld $2 1($29)            -- result = i (0 for empty: treated illegal,
	jmp MS_ret              --             as in replace.c's driver)
MS_fail:
	li $2 0
MS_ret:
	ld $31 0($29)
	addi $29 $29 3
	jr $31

-- ========================= patsize(n) =============================
patsize:
	addi $8 $4 800
	ld $9 0($8)
	seteq $10 $9 99         -- LITCHAR
	beq $10 0 PS_1
	li $2 2
	jr $31
PS_1:
	seteq $10 $9 37         -- BOL
	bne $10 0 PS_one
	seteq $10 $9 36         -- EOL
	bne $10 0 PS_one
	seteq $10 $9 63         -- ANY
	bne $10 0 PS_one
	seteq $10 $9 91         -- CCL
	bne $10 0 PS_ccl
	seteq $10 $9 33         -- NCCL
	bne $10 0 PS_ccl
	seteq $10 $9 42         -- CLOSURE
	bne $10 0 PS_one
	li $2 -1                -- Caseerror
	jr $31
PS_one:
	li $2 1
	jr $31
PS_ccl:
	ld $2 1($8)
	addi $2 $2 2
	jr $31

-- ====================== locate(c, offset) =========================
locate:
	addi $8 $5 800
	ld $9 0($8)             -- class size
	add $10 $5 $9           -- i = offset + pat[offset]
LOC_loop:
	setgt $11 $10 $5
	beq $11 0 LOC_no
	addi $12 $10 800
	ld $13 0($12)
	beq $13 $4 LOC_yes
	subi $10 $10 1
	jmp LOC_loop
LOC_yes:
	li $2 1
	jr $31
LOC_no:
	li $2 0
	jr $31

-- ====================== omatch(&i, j) =============================
-- $4 = &i (into line at 600), $5 = j (into pat at 800).
-- Frame: 0 ra, 1 &i, 2 j, 3 advance.
omatch:
	subi $29 $29 4
	st $31 0($29)
	st $4 1($29)
	st $5 2($29)
	ld $8 0($4)
	addi $9 $8 600
	ld $10 0($9)            -- lin[*i]
	bne $10 0 OM_go
	li $2 0
	jmp OM_ret
OM_go:
	li $11 -1
	st $11 3($29)           -- advance = -1
	addi $12 $5 800
	ld $13 0($12)           -- pat[j]
	seteq $14 $13 99        -- LITCHAR
	beq $14 0 OM_bol
	ld $14 1($12)
	bne $10 $14 OM_decide
	li $11 1
	st $11 3($29)
	jmp OM_decide
OM_bol:
	seteq $14 $13 37        -- BOL
	beq $14 0 OM_any
	bne $8 0 OM_decide
	li $11 0
	st $11 3($29)
	jmp OM_decide
OM_any:
	seteq $14 $13 63        -- ANY
	beq $14 0 OM_eol
	seteq $14 $10 10
	bne $14 0 OM_decide
	li $11 1
	st $11 3($29)
	jmp OM_decide
OM_eol:
	seteq $14 $13 36        -- EOL
	beq $14 0 OM_ccl
	setne $14 $10 10
	bne $14 0 OM_decide
	li $11 0
	st $11 3($29)
	jmp OM_decide
OM_ccl:
	seteq $14 $13 91        -- CCL
	beq $14 0 OM_nccl
	mov $4 $10
	ld $5 2($29)
	addi $5 $5 1
	jal locate
	beq $2 0 OM_decide
	li $11 1
	st $11 3($29)
	jmp OM_decide
OM_nccl:
	seteq $14 $13 33        -- NCCL
	beq $14 0 OM_decide     -- unknown code: no match (Caseerror analog)
	seteq $14 $10 10
	bne $14 0 OM_decide
	mov $4 $10
	ld $5 2($29)
	addi $5 $5 1
	jal locate
	bne $2 0 OM_decide
	li $11 1
	st $11 3($29)
OM_decide:
	ld $11 3($29)
	setge $12 $11 0
	beq $12 0 OM_false
	ld $4 1($29)
	ld $8 0($4)
	add $8 $8 $11           -- *i += advance
	st $8 0($4)
	li $2 1
	jmp OM_ret
OM_false:
	li $2 0
OM_ret:
	ld $31 0($29)
	addi $29 $29 4
	jr $31

-- ===================== amatch(offset, j) ==========================
-- $4 = offset, $5 = j; returns the index past the match or -1.
-- Recursive: closure backtracking calls amatch on the pattern rest.
-- Frame: 0 ra, 1 offset, 2 j, 3 i, 4 k.
amatch:
	subi $29 $29 5
	st $31 0($29)
	st $4 1($29)
	st $5 2($29)
AM_loop:
	ld $5 2($29)
	addi $8 $5 800
	ld $9 0($8)             -- pat[j]
	beq $9 0 AM_matched
	seteq $10 $9 42         -- CLOSURE
	beq $10 0 AM_simple
	ld $4 2($29)            -- j += patsize(pat, j)
	jal patsize
	ld $5 2($29)
	add $5 $5 $2
	st $5 2($29)
	ld $8 1($29)            -- i = offset
	st $8 3($29)
AM_eat:
	ld $8 3($29)            -- match as many as possible
	addi $9 $8 600
	ld $10 0($9)
	beq $10 0 AM_shrink
	addi $4 $29 3
	ld $5 2($29)
	jal omatch
	beq $2 0 AM_shrink
	jmp AM_eat
AM_shrink:
	li $8 -1                -- k = -1
	st $8 4($29)
AM_shrinkLoop:
	ld $8 3($29)
	ld $9 1($29)
	setlt $10 $8 $9         -- i < offset: closure failed everywhere
	bne $10 0 AM_closDone
	ld $4 2($29)
	jal patsize
	ld $5 2($29)
	add $5 $5 $2            -- j + patsize(pat, j): rest of pattern
	ld $4 3($29)
	jal amatch
	st $2 4($29)
	setge $10 $2 0
	bne $10 0 AM_closDone
	ld $8 3($29)            -- shrink closure by one
	subi $8 $8 1
	st $8 3($29)
	jmp AM_shrinkLoop
AM_closDone:
	ld $2 4($29)
	jmp AM_ret
AM_simple:
	addi $4 $29 1
	ld $5 2($29)
	jal omatch
	beq $2 0 AM_fail
	ld $4 2($29)
	jal patsize
	ld $5 2($29)
	add $5 $5 $2
	st $5 2($29)
	jmp AM_loop
AM_fail:
	li $2 -1
	jmp AM_ret
AM_matched:
	ld $2 1($29)
AM_ret:
	ld $31 0($29)
	addi $29 $29 5
	jr $31

-- ====================== putsub(s1, s2) ============================
-- Emits the substitution for lin[s1:s2]. Frame: 0 ra, 1 s1, 2 s2, 3 i, 4 jj.
putsub:
	subi $29 $29 5
	st $31 0($29)
	st $4 1($29)
	st $5 2($29)
	li $8 0
	st $8 3($29)
PU_loop:
	ld $8 3($29)
	addi $9 $8 1000
	ld $10 0($9)            -- sub[i]
	beq $10 0 PU_done
	seteq $11 $10 -1        -- DITTO
	beq $11 0 PU_char
	ld $12 1($29)           -- for jj = s1; jj < s2: print lin[jj]
	st $12 4($29)
PU_ditto:
	ld $12 4($29)
	ld $13 2($29)
	setge $14 $12 $13
	bne $14 0 PU_next
	addi $9 $12 600
	ld $10 0($9)
	print $10
	ld $12 4($29)
	addi $12 $12 1
	st $12 4($29)
	jmp PU_ditto
PU_char:
	print $10
PU_next:
	ld $8 3($29)
	addi $8 $8 1
	st $8 3($29)
	jmp PU_loop
PU_done:
	ld $31 0($29)
	addi $29 $29 5
	jr $31

-- ========================= subline() ==============================
-- Frame: 0 ra, 1 i, 2 lastm, 3 m.
subline:
	subi $29 $29 4
	st $31 0($29)
	li $8 0
	st $8 1($29)
	li $8 -1
	st $8 2($29)            -- lastm = -1
SL_loop:
	ld $8 1($29)
	addi $9 $8 600
	ld $10 0($9)
	beq $10 0 SL_done
	ld $4 1($29)            -- m = amatch(i, 0)
	li $5 0
	jal amatch
	st $2 3($29)
	setlt $8 $2 0
	bne $8 0 SL_nomatch
	ld $9 2($29)
	beq $9 $2 SL_nomatch    -- lastm == m: suppress duplicate
	ld $4 1($29)
	mov $5 $2
	jal putsub
	ld $8 3($29)
	st $8 2($29)            -- lastm = m
SL_nomatch:
	ld $8 3($29)
	seteq $9 $8 -1
	bne $9 0 SL_emit
	ld $10 1($29)
	beq $8 $10 SL_emit      -- empty match: emit the char and advance
	st $8 1($29)            -- i = m
	jmp SL_loop
SL_emit:
	ld $10 1($29)
	addi $9 $10 600
	ld $11 0($9)
	print $11
	addi $10 $10 1
	st $10 1($29)
	jmp SL_loop
SL_done:
	ld $31 0($29)
	addi $29 $29 4
	jr $31
`

// Program returns the replace application, assembled once: a Program is
// immutable, so every caller (each campaign a long-running service builds,
// say) shares the one copy.
func Program() *isa.Program { return program() }

var program = sync.OnceValue(func() *isa.Program { return asm.MustParse("replace", Source).Program })

// DodashDelimCallPC returns the PC of the instruction that loads the
// delimiter argument for the dodash call inside getccl — the paper's
// Section 6.4 example corrupts this parameter ("an input parameter to the
// dodash function that holds the delimiter (']') for a character range").
// The returned PC is the li $4 93 immediately preceding "jal dodash".
func DodashDelimCallPC(prog *isa.Program) (int, error) {
	for pc := 0; pc < prog.Len(); pc++ {
		in := prog.At(pc)
		if in.Op != isa.OpLi || in.Rd != 4 || in.Imm != int64(CCLEND) {
			continue
		}
		// The delimiter is consumed inside dodash; corrupting $4 at the jal
		// (just before the call transfers control) is the paper's scenario.
		for k := pc + 1; k < prog.Len() && k <= pc+4; k++ {
			if j := prog.At(k); j.Op == isa.OpJal && j.Label == "dodash" {
				return k, nil
			}
		}
	}
	return 0, fmt.Errorf("replace: dodash delimiter call site not found")
}
