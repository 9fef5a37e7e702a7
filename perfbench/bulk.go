package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"phasehash"
)

const (
	bulkN      = 1 << 23 // keys per stream
	bulkCells  = 1 << 24 // 128 MiB of cells
	bulkSetups = 3       // set-ups timed per run; setup_s is their median
)

// bulkInputs are the bulk-phases streams and the answers the benchmark
// computes for them on its own.
type bulkInputs struct {
	keys, probe []uint64
	distinct    int // distinct keys
	found       int // probe keys that are among the keys
	deleted     int // distinct keys in the first half
}

func newBulkInputs(seed uint64) *bulkInputs {
	in := &bulkInputs{
		keys:  randomSeq(seed, 2, bulkN, bulkN),
		probe: randomSeq(seed, 3, bulkN, bulkN),
	}
	var set bitset
	in.distinct, set = distinctCount(in.keys, bulkN)
	for _, k := range in.probe {
		if set.has(k) {
			in.found++
		}
	}
	in.deleted, _ = distinctCount(in.keys[:bulkN/2], bulkN)
	return in
}

var bulkWork = roundWork{
	ops:      2*bulkN + bulkN/2 + 1,
	inserted: bulkN,
	found:    bulkN,
	deleted:  bulkN / 2,
	cells:    bulkCells,
}

// checksum hashes a slice in order: equal layouts give equal sums.
func checksum(xs []uint64) uint64 {
	h := uint64(len(xs)) * 0x9e3779b97f4a7c15
	for _, x := range xs {
		h = (h ^ x) * 0x100000001b3
		h ^= h >> 29
	}
	return h
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// round runs InsertAll, ContainsAll(probe), Elements and DeleteAll of the
// first half, each timed and its result checked, then checks Count and
// runs a timed Clear. It returns the Elements checksum too.
func (in *bulkInputs) round(rep *report, s *phasehash.Set, tr *tracer, id uint64, validate bool) (r roundTimes, clear time.Duration, sum uint64) {
	root := tr.open(spRound, id, 0)
	var got int
	var elems []uint64
	r.insert = timedCall(tr, spSetInsert, id, root, func() { got = s.InsertAll(in.keys) })
	if got != in.distinct {
		rep.fail("InsertAll reported %d new keys, inputs have %d distinct", got, in.distinct)
	}
	r.contains = timedCall(tr, spSetContains, id, root, func() { got = s.ContainsAll(in.probe) })
	if got != in.found {
		rep.fail("ContainsAll found %d probe keys, expected %d", got, in.found)
	}
	r.elements = timedCall(tr, spSetElements, id, root, func() { elems = s.Elements() })
	if len(elems) != in.distinct {
		rep.fail("Elements packed %d keys, expected %d", len(elems), in.distinct)
	}
	sum = checksum(elems)
	if validate {
		seen := newBitset(bulkN + 1)
		for _, e := range elems {
			if e < 1 || e > bulkN || seen.has(e) {
				rep.fail("Elements returned %d: out of range or repeated", e)
				break
			}
			seen.add(e)
		}
	}
	r.delete = timedCall(tr, spSetDelete, id, root, func() { got = s.DeleteAll(in.keys[:bulkN/2]) })
	if got != in.deleted {
		rep.fail("DeleteAll removed %d keys, expected %d", got, in.deleted)
	}
	if n := s.Count(); n != in.distinct-in.deleted {
		rep.fail("Count after DeleteAll is %d, expected %d", n, in.distinct-in.deleted)
	}
	clear = timedCall(tr, spSetClear, id, root, s.Clear)
	tr.close(root)
	return r, clear, sum
}

func runBulk(o opts) (*report, error) {
	rep := newReport()
	in := newBulkInputs(o.seed)
	tr := newTracer(0)
	if o.trace {
		tr = newTracer(1 << 16)
	}

	// Set-up: allocate the table and run one warm-up round, bulkSetups
	// times, each on memory handed back to the OS first so every set-up
	// pays its own page faults. The last table is kept. Every Elements
	// checksum, here and in the window, must equal the first.
	var setups []float64
	var s *phasehash.Set
	var first uint64
	for i := 0; i < bulkSetups; i++ {
		s = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		s = phasehash.NewSet(bulkCells)
		alloc := time.Since(t0)
		r, clear, sum := in.round(rep, s, tr, 0, i == 0)
		setups = append(setups, (alloc + r.round() + clear).Seconds())
		if i == 0 {
			first = sum
		} else if sum != first {
			rep.fail("set-up %d: Elements checksum %x differs from %x", i+1, sum, first)
		}
	}

	var tw tracedWindow
	rounds, untraced := runRounds(o, tr, &tw, func(id uint64) roundTimes {
		r, _, sum := in.round(rep, s, tr, id, false)
		if sum != first {
			rep.fail("round %d: Elements checksum %x differs from %x", id, sum, first)
		}
		fmt.Fprintf(os.Stderr, "perfbench: bulk-phases: round %d: insert %.1f ms contains %.1f ms elements %.1f ms delete %.1f ms\n",
			id, ms(r.insert), ms(r.contains), ms(r.elements), ms(r.delete))
		return r
	})
	heap := liveHeapMB()
	runtime.KeepAlive(s) // the table is live at the end of the window
	checkPersistedSum(rep, o, first)
	rep.attempted = int64(len(rounds)) * int64(bulkWork.ops)

	if !o.trace {
		setRoundMetrics(rep, rounds, bulkWork, setups, heap)
		return rep, nil
	}
	setRoundTraceMetrics(rep, rounds, untraced, bulkWork, &tw)
	finishTrace(rep, o, tr)
	return rep, nil
}

// checkPersistedSum compares the run's Elements checksum with the one an
// earlier run of the same build, workload and seed stored in the output
// directory (history independence across runs), storing it if none was.
// The build is named by a hash of the benchmark binary, which changes
// with the library source, so a change that moves the table layout on
// purpose starts a new record instead of failing against the old one.
func checkPersistedSum(rep *report, o opts, sum uint64) {
	build, err := binaryHash()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: naming the build for the checksum store: %v\n", err)
		return
	}
	dir := filepath.Join(o.outDir, "checksums")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d", build, o.workload, o.seed))
	got := strconv.FormatUint(sum, 16)
	if b, err := os.ReadFile(path); err == nil {
		if want := strings.TrimSpace(string(b)); want != got {
			rep.fail("Elements checksum %s differs from %s stored by an earlier run of this build at this seed", got, want)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: storing the checksum: %v\n", err)
		return
	}
	if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: storing the checksum: %v\n", err)
	}
}

// binaryHash returns the first 16 hex digits of the SHA-256 of the
// running binary.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
