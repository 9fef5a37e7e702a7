package main

import (
	"fmt"
	"math"
	"os"

	"phasehash"
)

const (
	growN       = 1 << 20 // keys inserted per round
	growInitial = 1024    // initial GrowSet capacity
	growSetups  = 3       // warm-up rounds timed per run; setup_s is their median
)

// growInputs are the keys and the answers the benchmark computes for
// them on its own.
type growInputs struct {
	keys     []uint64
	distinct int
	set      bitset
}

// round builds a fresh GrowSet from growInitial cells by one InsertAll,
// then runs Elements, ContainsAll and DeleteAll of the same keys.
// InsertAll returns with the last doubling's migration partly done, and
// how much is left varies from round to round with the schedule;
// Elements finishes it (serially) before it packs, so that cost shows in
// Elements, and ContainsAll and DeleteAll time lookups and deletes on
// one settled table. Each call is timed and its result checked, except
// InsertAll's count: a wrong count is GrowTable's known defect and is
// returned (as the distance from the distinct key count), not failed. It
// also returns the capacity the build reached.
func (in *growInputs) round(rep *report, tr *tracer, id uint64) (r roundTimes, cells, wrong int) {
	root := tr.open(spRound, id, 0)
	var s *phasehash.GrowSet
	var got int
	var elems []uint64
	r.build = timedCall(tr, spGrowNew, id, root, func() { s = phasehash.NewGrowSet(growInitial) })
	r.insert = timedCall(tr, spGrowInsert, id, root, func() { got = s.InsertAll(in.keys) })
	wrong = got - in.distinct
	if wrong < 0 {
		wrong = -wrong
	}
	r.elements = timedCall(tr, spGrowElements, id, root, func() { elems = s.Elements() })
	if err := sameSet(elems, in.set, in.distinct); err != nil {
		rep.fail("Elements after the build: %v", err)
	}
	if n := s.Count(); n != in.distinct {
		rep.fail("Count after the build is %d, expected %d", n, in.distinct)
	}
	r.contains = timedCall(tr, spGrowContains, id, root, func() { got = s.ContainsAll(in.keys) })
	if got != growN {
		rep.fail("ContainsAll found %d of %d inserted keys", got, growN)
	}
	cells = s.Capacity()
	r.delete = timedCall(tr, spGrowDelete, id, root, func() { got = s.DeleteAll(in.keys) })
	if got != in.distinct {
		rep.fail("DeleteAll removed %d keys, expected %d", got, in.distinct)
	}
	if n := s.Count(); n != 0 {
		rep.fail("Count after DeleteAll is %d, expected 0", n)
	}
	tr.close(root)
	return r, cells, wrong
}

// sameSet reports whether elems holds exactly the n keys of set.
func sameSet(elems []uint64, set bitset, n int) error {
	if len(elems) != n {
		return fmt.Errorf("%d elements, expected %d", len(elems), n)
	}
	seen := newBitset(len(set) * 64)
	for _, e := range elems {
		if e/64 >= uint64(len(set)) || !set.has(e) {
			return fmt.Errorf("element %d was never inserted", e)
		}
		if seen.has(e) {
			return fmt.Errorf("element %d repeated", e)
		}
		seen.add(e)
	}
	return nil
}

func runGrow(o opts) (*report, error) {
	rep := newReport()
	in := &growInputs{keys: randomSeq(o.seed, 4, growN, growN)}
	in.distinct, in.set = distinctCount(in.keys, growN)
	tr := newTracer(0)
	if o.trace {
		tr = newTracer(1 << 16)
	}

	// Set-up: warm-up rounds, each building its own table.
	var setups []float64
	for i := 0; i < growSetups; i++ {
		r, _, _ := in.round(rep, tr, 0)
		setups = append(setups, r.round().Seconds())
	}

	var tw tracedWindow
	var cells, wrong int
	rounds, untraced := runRounds(o, tr, &tw, func(id uint64) roundTimes {
		r, c, wr := in.round(rep, tr, id)
		cells = c
		wrong += wr
		fmt.Fprintf(os.Stderr, "perfbench: grow-build: round %d: insert %.1f ms contains %.1f ms elements %.1f ms delete %.1f ms, %d cells, %d wrong\n",
			id, ms(r.insert), ms(r.contains), ms(r.elements), ms(r.delete), c, wr)
		return r
	})
	heap := liveHeapMB()
	work := roundWork{ops: 3*growN + 1, inserted: growN, found: growN, deleted: growN, cells: float64(cells)}
	rep.attempted = int64(len(rounds)) * int64(work.ops)
	wrongPerRound := float64(wrong) / float64(len(rounds))
	fmt.Fprintf(os.Stderr, "perfbench: grow-build: InsertAll over-reported %.1f inserts per round for %d distinct keys (GrowTable's known insert-count defect)\n",
		wrongPerRound, in.distinct)

	if !o.trace {
		setRoundMetrics(rep, rounds, work, setups, heap)
		return rep, nil
	}
	setRoundTraceMetrics(rep, rounds, untraced, work, &tw)
	v := rep.values
	v["grow.final_cells"] = float64(cells)
	v["grow.doublings"] = math.Log2(float64(cells) / growInitial)
	v["grow.wrong_results"] = wrongPerRound
	v["wrong_results_frac"] = wrongPerRound / growN
	finishTrace(rep, o, tr)
	return rep, nil
}
