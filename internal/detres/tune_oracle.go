package detres

// Self-tuning oracle: the determinism claim extended across the one
// adaptive component left in the library, tables.AutoTable, which
// migrates between the flat and the compact representation at bulk-call
// boundaries when its load factor and op mix cross the kind policy's
// thresholds. The claim is that the decisions — and therefore the
// decision trace AND the quiescent state they produce — are a pure
// function of the operation script, never of the schedule.
// AutoTuneRunner replays a script whose load and find share cross the
// thresholds in both directions; RunOracle proves grid-wide
// byte-identity of state + trace, and RunCrossOracle pins the
// per-element path to the bulk kernels, whose op tallies (the policy's
// inputs) must agree exactly.

import (
	"phasehash/internal/core"
	"phasehash/internal/tables"
)

// tunePhase is one phase of the tuning script: the keys it inserts,
// finds or deletes.
type tunePhase struct {
	op   byte // 'i', 'f' or 'd'
	keys []uint64
}

// tuneScript derives the kind-crossing script and the table capacity
// from a workload, as a pure function of it. The capacity is the
// largest power of two (at least 64) whose 80% fits in the workload's
// distinct keys, and the script uses the shortest prefix p holding that
// many distinct keys:
//
//  1. insert the first half of p, then find all of p three times: a
//     find-heavy mix at about 40% load, which stays flat;
//  2. insert the rest of p (load about 80%), then find all of p: the
//     find phase's boundary sees high load and a find share of 3/4 and
//     switches to compact;
//  3. delete the first half of p, then find all of p: the find phase's
//     boundary sees the load back near 40% and switches to flat.
//
// Shorter workloads (the minimizer's prefixes) simply cross fewer
// thresholds.
func tuneScript(elems []uint64) (capacity int, phases []tunePhase) {
	distinct := make(map[uint64]struct{}, len(elems))
	for _, e := range elems {
		distinct[e] = struct{}{}
	}
	capacity = 64
	for capacity*2*4/5 <= len(distinct) {
		capacity *= 2
	}
	target := capacity * 4 / 5
	seen := make(map[uint64]struct{}, target)
	p := len(elems)
	for i, e := range elems {
		seen[e] = struct{}{}
		if len(seen) >= target {
			p = i + 1
			break
		}
	}
	prefix, half := elems[:p], elems[:p/2]
	finds := func(rounds int) tunePhase {
		keys := make([]uint64, 0, rounds*p)
		for r := 0; r < rounds; r++ {
			keys = append(keys, prefix...)
		}
		return tunePhase{'f', keys}
	}
	return capacity, []tunePhase{
		{'i', half}, finds(3),
		{'i', elems[p/2 : p]}, finds(1),
		{'d', half}, finds(1),
	}
}

// AutoTuneRunner replays the kind-crossing script on a
// tables.AutoTable. With PerElement set, every phase opens with an
// empty bulk call of its kind (the boundary at which the table
// re-decides its representation) and then runs per-element, striped
// across the workers; otherwise each phase is one bulk call. The
// observation carries the table's decision trace.
type AutoTuneRunner struct{ PerElement bool }

// Name implements Runner.
func (r AutoTuneRunner) Name() string {
	if r.PerElement {
		return "auto-tune"
	}
	return "auto-tune-bulk"
}

// Run implements Runner.
func (r AutoTuneRunner) Run(elems []uint64, workers int) OracleResult {
	capacity, phases := tuneScript(elems)
	t := tables.NewAutoTable[core.SetOps](capacity)
	for _, ph := range phases {
		keys := ph.keys
		if r.PerElement {
			keys = nil
		}
		switch ph.op {
		case 'i':
			t.InsertAll(keys)
		case 'f':
			t.FindAll(keys, nil)
		case 'd':
			t.DeleteAll(keys)
		}
		if !r.PerElement {
			continue
		}
		keys = ph.keys
		switch ph.op {
		case 'i':
			stripe(len(keys), workers, func(i int) { t.Insert(keys[i]) })
		case 'f':
			stripe(len(keys), workers, func(i int) { t.Find(keys[i]) })
		case 'd':
			stripe(len(keys), workers, func(i int) { t.Delete(keys[i]) })
		}
	}
	return OracleResult{Elements: t.Elements(), Layout: t.Snapshot(), Count: t.Count(), Trace: t.TuneTrace()}
}
