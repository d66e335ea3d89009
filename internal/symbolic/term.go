package symbolic

import (
	"fmt"

	"symplfied/internal/isa"
)

// RootID identifies an independent erroneous quantity introduced by a fault
// injection or by a propagation step whose result is not an affine function
// of a single existing root.
type RootID int32

// Term is the symbolic value of a location holding err, expressed as an
// affine function of one root: Coeff*root + Off. A freshly injected err is
// Term{Root: r, Coeff: 1, Off: 0}.
type Term struct {
	Root  RootID
	Coeff int64
	Off   int64
}

// FreshTerm returns the identity term for a root.
func FreshTerm(r RootID) Term { return Term{Root: r, Coeff: 1} }

// String renders the term with the root shown as e#N.
func (t Term) String() string {
	root := fmt.Sprintf("e#%d", t.Root)
	switch {
	case t.Coeff == 1 && t.Off == 0:
		return root
	case t.Off == 0:
		return fmt.Sprintf("%d*%s", t.Coeff, root)
	case t.Coeff == 1:
		return fmt.Sprintf("%s%+d", root, t.Off)
	default:
		return fmt.Sprintf("%d*%s%+d", t.Coeff, root, t.Off)
	}
}

// addOvf returns a+b, with ok=false on signed overflow.
func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulOvf returns a*b, with ok=false on signed overflow.
func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	// MinInt64 * -1 overflows, and the p/b check below cannot see it
	// because Go's division wraps the same way.
	if (a == minInt64 && b == -1) || (b == minInt64 && a == -1) {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// AddConst returns the term t + c. ok is false on overflow, in which case the
// caller must degrade to a fresh root.
func (t Term) AddConst(c int64) (Term, bool) {
	off, ok := addOvf(t.Off, c)
	if !ok {
		return Term{}, false
	}
	t.Off = off
	return t, true
}

// MulConst returns the term t * c; the isZero result reports c == 0 (the
// product is the concrete 0, per the paper's "err * 0 = 0" equation).
func (t Term) MulConst(c int64) (out Term, isZero, ok bool) {
	if c == 0 {
		return Term{}, true, true
	}
	coeff, ok1 := mulOvf(t.Coeff, c)
	off, ok2 := mulOvf(t.Off, c)
	if !ok1 || !ok2 {
		return Term{}, false, false
	}
	return Term{Root: t.Root, Coeff: coeff, Off: off}, false, true
}

// Neg returns -t. ok is false on overflow.
func (t Term) Neg() (Term, bool) { return t.MulConstTerm(-1) }

// AddTerm returns t + u when both terms share a root. If the coefficients
// cancel, the result is the concrete constant returned in constVal.
func (t Term) AddTerm(u Term) (out Term, constVal int64, isConst, ok bool) {
	if t.Root != u.Root {
		return Term{}, 0, false, false
	}
	coeff, ok1 := addOvf(t.Coeff, u.Coeff)
	off, ok2 := addOvf(t.Off, u.Off)
	if !ok1 || !ok2 {
		return Term{}, 0, false, false
	}
	if coeff == 0 {
		return Term{}, off, true, true
	}
	return Term{Root: t.Root, Coeff: coeff, Off: off}, 0, false, true
}

// SubTerm returns t - u when both terms share a root; like AddTerm it may
// collapse to a constant.
func (t Term) SubTerm(u Term) (out Term, constVal int64, isConst, ok bool) {
	nu, okNeg := u.MulConstTerm(-1)
	if !okNeg {
		return Term{}, 0, false, false
	}
	return t.AddTerm(nu)
}

// MulConstTerm is MulConst for nonzero multipliers: ok is false when the
// multiplication overflows or c is zero (callers wanting the concrete-zero
// case use MulConst directly).
func (t Term) MulConstTerm(c int64) (Term, bool) {
	out, isZero, ok := t.MulConst(c)
	if !ok || isZero {
		return Term{}, false
	}
	return out, true
}

// at evaluates t with its root set to root. ok is false on overflow.
func (t Term) at(root int64) (int64, bool) {
	coeff, ok := mulOvf(t.Coeff, root)
	if !ok {
		return 0, false
	}
	return addOvf(coeff, t.Off)
}

// Equal reports whether two terms denote the same affine function.
func (t Term) Equal(u Term) bool { return t == u }

// InvertCmp translates the constraint "t cmp rhs" into an atomic constraint
// on t's root. Results:
//
//   - ok=true, tautology=false: rootCmp/rootVal hold the translated atom.
//   - ok=true, tautology=true: the constraint is always true (no atom).
//   - ok=false: the constraint is unsatisfiable.
//
// The translation is exact over the integers (ceiling/floor division), which
// is what lets the solver prune false positives without losing soundness.
func (t Term) InvertCmp(cmp isa.Cmp, rhs int64) (rootCmp isa.Cmp, rootVal int64, tautology, ok bool) {
	c, k := t.Coeff, rhs
	var okSub bool
	if k, okSub = subOvf(rhs, t.Off); !okSub {
		// rhs - Off overflows int64: the comparison against such an extreme
		// bound cannot be translated exactly; treat as tautology (sound: we
		// simply learn nothing).
		return 0, 0, true, true
	}
	if c == 0 {
		// Degenerate: the "term" is the constant Off.
		if isa.EvalCmp(cmp, 0, k) {
			return 0, 0, true, true
		}
		return 0, 0, false, false
	}
	if c < 0 {
		// Multiply both sides by -1: flips the inequality direction.
		nc, ok1 := mulOvf(c, -1)
		nk, ok2 := mulOvf(k, -1)
		if !ok1 || !ok2 {
			return 0, 0, true, true
		}
		c, k = nc, nk
		cmp = cmp.Swap()
	}
	switch cmp {
	case isa.CmpEq:
		if k%c != 0 {
			return 0, 0, false, false
		}
		return isa.CmpEq, k / c, false, true
	case isa.CmpNe:
		if k%c != 0 {
			return 0, 0, true, true
		}
		return isa.CmpNe, k / c, false, true
	case isa.CmpGt: // c*x > k  <=>  x >= floor(k/c)+1
		f := floorDiv(k, c)
		if f == maxInt64 {
			return 0, 0, false, false
		}
		return isa.CmpGe, f + 1, false, true
	case isa.CmpGe: // c*x >= k <=>  x >= ceil(k/c)
		return isa.CmpGe, ceilDiv(k, c), false, true
	case isa.CmpLt: // c*x < k  <=>  x <= ceil(k/c)-1
		cl := ceilDiv(k, c)
		if cl == minInt64 {
			return 0, 0, false, false
		}
		return isa.CmpLe, cl - 1, false, true
	case isa.CmpLe: // c*x <= k <=>  x <= floor(k/c)
		return isa.CmpLe, floorDiv(k, c), false, true
	}
	return 0, 0, true, true
}

func subOvf(a, b int64) (int64, bool) {
	if b == minInt64 {
		if a >= 0 {
			return 0, false
		}
		return a - b, true
	}
	return addOvf(a, -b)
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}
