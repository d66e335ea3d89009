// Package dist is the networked tier of the paper's experiment harness: the
// paper ran each SymPLFIED study by splitting the search into independent
// tasks dispatched to a 150-node Opteron cluster (Section 6.1).
// internal/cluster reproduces the decomposition on one machine's cores; this
// package spans machines — and, beyond the paper, spans campaigns: it is a
// persistent multi-tenant campaign service, not a one-shot coordinator.
//
// A Registry owns any number of campaigns at once. Each campaign lowers a
// declarative SpecDoc, partitions its injection space with cluster.Split,
// and serves tasks over the versioned JSON HTTP API (Service; see the
// endpoint table in protocol.go) to pull-based workers. Workers claim either
// from one campaign's scoped routes or from the fleet-level dispatcher,
// which ranks open campaigns by priority (round-robining equals) and
// enforces per-tenant quotas on open campaigns and leased tasks. Each
// claimed task runs under a renewable lease, is swept with
// cluster.RunTaskCtx (keeping the checker's per-injection timeout and panic
// isolation), and its serialized per-injection reports are posted back.
//
// Durability is a pluggable Store: MemStore by default, or DiskStore over
// internal/campaign's JSONL journal format, under which every campaign's
// record and settled results persist, so a killed service resumes every open
// campaign.
// Settled results also feed a fleet-wide content-addressed ResultCache
// keyed by (fingerprint, split width, task, budgets): a re-submitted
// document's tasks are answered from cache at claim time without a worker
// lease. Findings stream to subscribers over per-campaign event feeds
// (long-poll or SSE) as tasks settle.
//
// Within a campaign, Coordinator reassigns tasks whose lease heartbeats
// lapse, drops duplicate completions from re-claimed tasks, and pools results
// into a merged report identical — byte for byte — to a single-process
// cluster.Run over the same document.
package dist

import (
	"fmt"
	"time"

	"symplfied"
	"symplfied/internal/checker"
	"symplfied/internal/cli"
	"symplfied/internal/crossval"
	"symplfied/internal/query"
)

// SpecDoc is the declarative, serializable description of one distributed
// campaign. It deliberately carries sources and names rather than built
// values: the coordinator and every worker lower the same document through
// symplfied.SearchSpec.CheckerSpec, so all parties construct the identical
// search (program, detectors, predicate, injection enumeration), and the
// campaign fingerprint verifies they did.
type SpecDoc struct {
	// Name labels the campaign (reports, program name for -file sources).
	Name string
	// App selects a built-in benchmark application; mutually exclusive with
	// Source.
	App string `json:",omitempty"`
	// Source is the program text (SymPLFIED assembly, or MIPS dialect when
	// MIPS is set) when the campaign analyzes a file.
	Source string `json:",omitempty"`
	// MIPS marks Source as MIPS-dialect assembly.
	MIPS bool `json:",omitempty"`
	// Input is the program input stream.
	Input []int64 `json:",omitempty"`
	// Class names the error class to enumerate (register | memory | control
	// | decode).
	Class string
	// Goal names the search goal (err-output | incorrect-output |
	// wrong-advisory | crash | hang | detected).
	Goal string
	// Watchdog bounds each symbolic path (0: default).
	Watchdog int `json:",omitempty"`
	// Tasks is the decomposition width (paper: 150 for tcas, 312 for
	// replace). 0 means one task.
	Tasks int
	// TaskStateBudget bounds each task's explored states (the analogue of
	// the paper's 30-minute allotment). 0 selects the cluster default.
	TaskStateBudget int `json:",omitempty"`
	// MaxFindingsPerTask caps findings per task (paper: 10). 0 is unlimited.
	MaxFindingsPerTask int `json:",omitempty"`
	// PerInjectionTimeout bounds the wall clock of a single injection
	// (0: none). Note that wall-clock outcomes are machine-dependent; leave
	// zero when bit-identical pooled reports matter.
	PerInjectionTimeout time.Duration `json:",omitempty"`
	// DisableAffineSolver reverts to the paper's coarser constraint model.
	DisableAffineSolver bool `json:",omitempty"`
	// Permanent turns every register/memory injection into a stuck-at fault.
	Permanent bool `json:",omitempty"`

	// Crossval switches the campaign from a symbolic search to a
	// concrete↔symbolic cross-validation sweep (internal/crossval): tasks are
	// slices of injection sites rather than symbolic injections, and the
	// merged report is a crossval mismatch report. Class and Goal are unused
	// in this mode. TaskStateBudget becomes the per-point symbolic budget and
	// PerInjectionTimeout the per-trial wall clock.
	Crossval bool `json:",omitempty"`
	// Seed drives crossval's per-site random value derivation.
	Seed int64 `json:",omitempty"`
	// RandomPerReg is crossval's number of seeded random values per site on
	// top of the three extremes (0: the paper's 3).
	RandomPerReg int `json:",omitempty"`
}

// loadUnit resolves the document's program source exactly the same way for
// every party of a campaign.
func (d SpecDoc) loadUnit() (*symplfied.Unit, error) {
	var (
		unit *symplfied.Unit
		err  error
	)
	switch {
	case d.App != "" && d.Source != "":
		return nil, fmt.Errorf("dist: spec has both App and Source")
	case d.App != "":
		unit, err = cli.BuiltinApp(d.App)
	case d.MIPS:
		var prog *symplfied.Program
		prog, err = symplfied.TranslateMIPS(d.name(), d.Source)
		if err == nil {
			unit = &symplfied.Unit{Program: prog}
		}
	case d.Source != "":
		unit, err = symplfied.Assemble(d.name(), d.Source)
	default:
		return nil, fmt.Errorf("dist: spec has neither App nor Source")
	}
	if err != nil {
		return nil, fmt.Errorf("dist: load program: %w", err)
	}
	return unit, nil
}

// Build lowers the document to the internal checker spec. Every party of a
// distributed campaign calls exactly this, so equal documents yield equal
// specs — and equal campaign fingerprints.
func (d SpecDoc) Build() (checker.Spec, error) {
	if d.Crossval {
		return checker.Spec{}, fmt.Errorf("dist: crossval campaign lowers via BuildCrossval, not Build")
	}
	unit, err := d.loadUnit()
	if err != nil {
		return checker.Spec{}, err
	}
	class, ok := query.ClassByName(d.Class)
	if !ok {
		return checker.Spec{}, fmt.Errorf("dist: unknown error class %q", d.Class)
	}
	goal, ok := query.GoalByName(d.Goal)
	if !ok {
		return checker.Spec{}, fmt.Errorf("dist: unknown goal %q", d.Goal)
	}
	return symplfied.SearchSpec{
		Unit:  unit,
		Input: d.Input,
		Class: class,
		Goal:  goal,
		Limits: symplfied.Limits{
			Watchdog:            d.Watchdog,
			StateBudget:         d.TaskStateBudget,
			MaxFindings:         d.MaxFindingsPerTask,
			PerInjectionTimeout: d.PerInjectionTimeout,
		},
		DisableAffineSolver: d.DisableAffineSolver,
		Permanent:           d.Permanent,
	}.CheckerSpec()
}

// BuildCrossval lowers the document to a cross-validation spec. Like Build it
// is the single lowering path for every party, so equal documents yield equal
// crossval fingerprints.
func (d SpecDoc) BuildCrossval() (crossval.Spec, error) {
	if !d.Crossval {
		return crossval.Spec{}, fmt.Errorf("dist: spec is not a crossval campaign")
	}
	unit, err := d.loadUnit()
	if err != nil {
		return crossval.Spec{}, err
	}
	return crossval.Spec{
		Program:         unit.Program,
		Detectors:       unit.Detectors,
		Input:           d.Input,
		Watchdog:        d.Watchdog,
		Seed:            d.Seed,
		RandomPerReg:    d.RandomPerReg,
		StateBudget:     d.TaskStateBudget,
		PerTrialTimeout: d.PerInjectionTimeout,
	}, nil
}

func (d SpecDoc) name() string {
	if d.Name != "" {
		return d.Name
	}
	return "campaign"
}
