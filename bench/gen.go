package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
)

// stream returns the deterministic random stream for item i of the named
// input stream under seed. Items are independent of each other, so an input
// never depends on how many items a run generated before it, and warm-up
// streams ("warm-...") never overlap the timed ones.
func stream(seed int64, name string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, name, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// tcasCycle is the tcas input strata period: item i reaches the advisory
// logic (alt_sep_test's resolution branch) iff i%tcasCycle == 0. A uniform
// draw reaches it about 7% of the time, and those inputs cost about five
// times the others (~1.1M states against ~0.22M for a completing sweep), so
// fixing the share at one in four keeps every run's mix, and its latency
// percentiles, the same across seeds: the median falls inside the cheap
// stratum and p90 inside the expensive one.
const tcasCycle = 4

// tcasInput draws item i of a tcas input stream from the domain
// internal/apps/tcas's TestAssemblyMatchesOracle sweeps, by rejection on the
// item's stratum.
func tcasInput(seed int64, name string, i int) tcas.Inputs {
	r := stream(seed, name, i)
	want := i%tcasCycle == 0
	for {
		in := tcas.Inputs{
			CurVerticalSep:         r.Int63n(1200),
			HighConfidence:         r.Int63n(2),
			TwoOfThreeReportsValid: r.Int63n(2),
			OwnTrackedAlt:          r.Int63n(2000),
			OwnTrackedAltRate:      r.Int63n(1200),
			OtherTrackedAlt:        r.Int63n(2000),
			AltLayerValue:          r.Int63n(4),
			UpSeparation:           r.Int63n(1000),
			DownSeparation:         r.Int63n(1000),
			OtherRAC:               r.Int63n(3),
			OtherCapability:        1 + r.Int63n(2),
			ClimbInhibit:           r.Int63n(2),
		}
		if resolves(in) == want {
			return in
		}
	}
}

// resolves reports whether tcas reaches its advisory resolution on in: the
// guard of tcas.c's alt_sep_test.
func resolves(in tcas.Inputs) bool {
	enabled := in.HighConfidence != 0 && in.OwnTrackedAltRate <= tcas.OLEV && in.CurVerticalSep > tcas.MAXALTDIFF
	equipped := in.OtherCapability == tcas.TCASTA
	intentNotKnown := in.TwoOfThreeReportsValid != 0 && in.OtherRAC == tcas.NoIntent
	return enabled && ((equipped && intentNotKnown) || !equipped)
}

// replaceCase is one replace run: a pattern, a substitution and a line.
type replaceCase struct {
	Pattern, Sub, Line string
}

func (c replaceCase) input() []int64 { return replace.Input(c.Pattern, c.Sub, c.Line) }

// replaceTemplates are the pattern shapes of the replace grammar, one
// stratum each: a character class under closure, a beginning-of-line
// anchor, any-character with an end-of-line anchor, and a negated class.
// Studies of the class shapes cost about 2.5 times the anchored ones, so
// item i always takes shape i%len(replaceTemplates) and every run times the
// same mix.
var replaceTemplates = []func(r *rand.Rand) string{
	func(r *rand.Rand) string {
		lo, hi := classRange(r)
		return fmt.Sprintf("[%c-%c]%c*", lo, hi, letter(r))
	},
	func(r *rand.Rand) string { return fmt.Sprintf("%%%c%c", letter(r), letter(r)) },
	func(r *rand.Rand) string { return fmt.Sprintf("%c?%c$", letter(r), letter(r)) },
	func(r *rand.Rand) string { lo, hi := classRange(r); return fmt.Sprintf("[^%c-%c]", lo, hi) },
}

const replaceLetters = "abcdxyz"

func letter(r *rand.Rand) byte { return replaceLetters[r.Intn(len(replaceLetters))] }

func classRange(r *rand.Rand) (lo, hi byte) {
	lo = byte('a' + r.Intn(3))
	return lo, lo + byte(1+r.Intn(3))
}

// replaceSubs are the substitutions drawn from: each re-emits the match
// between two literal characters.
var replaceSubs = []string{"<&>", "[&]", "(&)"}

// replaceInput draws item i of a replace input stream: a pattern of shape
// i%len(replaceTemplates), a substitution, and an 8-character line over the
// pattern alphabet. The pattern is redrawn until replace.Oracle accepts the
// whole specification.
func replaceInput(seed int64, name string, i int) replaceCase {
	r := stream(seed, name, i)
	shape := replaceTemplates[i%len(replaceTemplates)]
	for {
		c := replaceCase{Pattern: shape(r), Sub: replaceSubs[r.Intn(len(replaceSubs))]}
		line := make([]byte, 8)
		for j := range line {
			line[j] = letter(r)
		}
		c.Line = string(line)
		if _, ok := replace.Oracle(c.Pattern, c.Sub, c.Line); ok {
			return c
		}
	}
}
