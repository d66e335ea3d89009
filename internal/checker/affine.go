package checker

import (
	"symplfied/internal/isa"
	"symplfied/internal/symbolic"
)

// Affine lap extrapolation, the second gear of the merged explorer's cycle
// accelerator: when a lap proves affine (machine.AffineLapOK, the proof the
// concrete machine's RunTail uses too), the explorer adds k laps of register
// delta and jumps the step counter in O(1). The measured lap must leave
// memory as it found it (the proof covers registers only), and the verify
// lap (runSingle) must mint no root and leave the constraint store
// unchanged.
// Anything the analysis cannot prove declines — the state keeps stepping for
// real, and the SYMPLFIED_CHECK_MERGING cross-check holds the implementation
// to byte-identical verdicts either way.

// affineProbe is an in-flight affinity verification: the recorded lap, the
// registers and measured delta at the lap boundary where the probe was
// armed, and the progress of the verify lap.
type affineProbe struct {
	window []int // executed pc sequence of one lap
	delta  [isa.NumRegs]int64
	regs0  [isa.NumRegs]isa.Value
	sym    uint64 // storeHash at the lap boundary
	idx    int    // next window position the verify lap must execute
}

// storeHash hashes a constraint store's content. The verify lap must leave
// the store as it found it: the delta covers concrete registers only, and a
// lap that keeps rewriting an err location's term (say $26 = $26 + e#0)
// would otherwise be extrapolated with the term frozen.
func storeHash(s *symbolic.Store) uint64 {
	h := symbolic.NewHash64()
	s.KeyHash(&h)
	return h.Sum()
}
