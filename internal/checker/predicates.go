package checker

import (
	"fmt"

	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// OutputContainsErr matches states whose output stream contains the symbolic
// error — the paper's example search command (Section 5.4).
func OutputContainsErr() Predicate {
	return Predicate{
		resultOnly: true,
		Name:       "output contains err",
		Match:      func(s *symexec.State) bool { return s.OutputContainsErr() },
	}
}

// HaltedOutputOtherThan matches runs that halted normally (no exception) but
// printed exactly one value different from want — the tcas study's search
// for undetected incorrect advisories (Section 6.1: "runs in which the
// program did not throw an exception and produced a value other than 1").
// A printed err counts as "other than want": the symbolic value stands for
// at least one concrete value different from want.
func HaltedOutputOtherThan(want int64) Predicate {
	return Predicate{
		resultOnly: true,
		Name:       fmt.Sprintf("halted with single output != %d", want),
		Match: func(s *symexec.State) bool {
			if s.Outcome() != symexec.OutcomeNormal {
				return false
			}
			n, last := printedValues(s)
			if n != 1 {
				return n > 0 // printed extra/missing values: incorrect
			}
			if last.IsErr() {
				return true
			}
			v, _ := last.Concrete()
			return v != want
		},
	}
}

// printedValues counts the values s printed (string literals aside) and
// returns the last of them, without building OutputValues' slice.
func printedValues(s *symexec.State) (n int, last isa.Value) {
	for _, o := range s.Out {
		if !o.IsStr {
			n++
			last = o.Val
		}
	}
	return n, last
}

// HaltedOutputEquals matches runs that halted normally printing exactly the
// given concrete values.
func HaltedOutputEquals(want ...int64) Predicate {
	return Predicate{
		resultOnly: true,
		Name:       fmt.Sprintf("halted with output %v", want),
		Match: func(s *symexec.State) bool {
			if s.Outcome() != symexec.OutcomeNormal {
				return false
			}
			vals := s.OutputValues()
			if len(vals) != len(want) {
				return false
			}
			for i, v := range vals {
				if !v.Equal(isa.Int(want[i])) {
					return false
				}
			}
			return true
		},
	}
}

// IncorrectOutput matches normal terminations whose rendered output differs
// from the expected fault-free output (used for the replace study,
// Section 6.4: "errors ... that lead to an incorrect outcome of the
// program"). Output containing err also counts: it denotes at least one
// concrete incorrect rendering.
func IncorrectOutput(expected string) Predicate {
	return Predicate{
		resultOnly: true,
		Name:       "halted with incorrect output",
		Match: func(s *symexec.State) bool {
			return s.Outcome() == symexec.OutcomeNormal && s.OutputString() != expected
		},
	}
}

// OutcomeIs matches terminal states with the given outcome.
func OutcomeIs(o symexec.Outcome) Predicate {
	return Predicate{
		resultOnly: true,
		Name:       fmt.Sprintf("outcome %s", o),
		Match:      func(s *symexec.State) bool { return s.Outcome() == o },
	}
}

// ExceptionOfKind matches states terminated by the given exception kind.
func ExceptionOfKind(k isa.ExceptionKind) Predicate {
	return Predicate{
		resultOnly: true,
		Name:       fmt.Sprintf("exception %s", k),
		Match: func(s *symexec.State) bool {
			return s.Exc != nil && s.Exc.Kind == k
		},
	}
}

// Undetected wraps p to additionally require that no detector fired, i.e.
// the error evaded detection (the framework's headline question).
func Undetected(p Predicate) Predicate {
	return Predicate{
		resultOnly: p.resultOnly,
		Name:       p.Name + " and undetected",
		Match: func(s *symexec.State) bool {
			return s.Outcome() != symexec.OutcomeDetected && p.Match(s)
		},
	}
}

// Any matches states satisfying at least one of the predicates.
func Any(ps ...Predicate) Predicate {
	name := ""
	for i, p := range ps {
		if i > 0 {
			name += " or "
		}
		name += p.Name
	}
	return Predicate{
		resultOnly: allResultOnly(ps),
		Name:       name,
		Match: func(s *symexec.State) bool {
			for _, p := range ps {
				if p.Match(s) {
					return true
				}
			}
			return false
		},
	}
}

// All matches states satisfying every predicate.
func All(ps ...Predicate) Predicate {
	name := ""
	for i, p := range ps {
		if i > 0 {
			name += " and "
		}
		name += p.Name
	}
	return Predicate{
		resultOnly: allResultOnly(ps),
		Name:       name,
		Match: func(s *symexec.State) bool {
			for _, p := range ps {
				if !p.Match(s) {
					return false
				}
			}
			return true
		},
	}
}

// allResultOnly reports whether every predicate of ps reads only a terminal
// state's result.
func allResultOnly(ps []Predicate) bool {
	for _, p := range ps {
		if !p.resultOnly {
			return false
		}
	}
	return true
}
