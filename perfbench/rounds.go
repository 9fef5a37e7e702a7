package main

import (
	"time"

	"phasehash/internal/obs"
)

// roundTimes is the timing of one bulk-phases or grow-build round: the
// calls a round is made of, in order. round() is their sum.
type roundTimes struct {
	build, insert, contains, elements, delete time.Duration
}

func (r roundTimes) round() time.Duration {
	return r.build + r.insert + r.contains + r.elements + r.delete
}

// timedCall runs f inside a span of the given name under parent and
// returns how long f took.
func timedCall(tr *tracer, name spanName, id uint64, parent int32, f func()) time.Duration {
	h := tr.open(name, id, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.close(h)
	return d
}

// tracedWindow is the counter snapshots around the traced part of a run.
type tracedWindow struct {
	core0, core1 obs.CoreStats
	go0, go1     goStats
	start        time.Time
	secs         float64
}

// begin resets the counter core and switches tracing on.
func (t *tracedWindow) begin(tr *tracer) {
	obs.CoreReset()
	t.core0 = obs.CoreSnapshot()
	t.go0 = readGoStats()
	t.start = time.Now()
	tr.on.Store(true)
}

// end switches tracing off and takes the closing snapshots.
func (t *tracedWindow) end(tr *tracer) {
	tr.on.Store(false)
	t.secs = time.Since(t.start).Seconds()
	t.go1 = readGoStats()
	t.core1 = obs.CoreSnapshot()
}

// setLayerMetrics stores the counter-core, parallel and Go runtime
// metrics of the traced window, which completed ops operations.
func (t *tracedWindow) setLayerMetrics(rep *report, ops float64) {
	setCoreMetrics(rep, t.core1.Sub(t.core0), t.secs)
	setGoMetrics(rep, t.go0, t.go1, ops)
}

// runRounds calls round until the window has passed, at least twice.
// A traced run traces the rounds that start in the second half of the
// window, at least one, and returns how many ran before tracing.
func runRounds(o opts, tr *tracer, tw *tracedWindow, round func(id uint64) roundTimes) ([]roundTimes, int) {
	var rounds []roundTimes
	untraced := -1
	start := time.Now()
	for len(rounds) < 2 || time.Since(start) < o.window || (o.trace && untraced < 0) {
		if o.trace && untraced < 0 && len(rounds) >= 1 && time.Since(start) >= o.window/2 {
			untraced = len(rounds)
			tw.begin(tr)
		}
		rounds = append(rounds, round(uint64(len(rounds)+1)))
	}
	if o.trace {
		tw.end(tr)
	}
	return rounds, untraced
}

// secondsOf returns f of every round, in seconds.
func secondsOf(rs []roundTimes, f func(roundTimes) time.Duration) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r).Seconds()
	}
	return xs
}

// roundWork is what one round of a bulk workload does.
type roundWork struct {
	ops                      float64 // keys passed to bulk calls, plus one per Elements
	inserted, found, deleted float64 // keys passed to InsertAll, ContainsAll, DeleteAll
	cells                    float64 // cells Elements packs
}

// roundP99 estimates the 99th percentile of round time from the median
// and the interquartile range, as for a normal distribution: median +
// 2.326σ with σ = IQR / 1.349. A run holds a few tens of rounds, so no
// round lies reliably beyond the p99, and the slowest round reports
// whichever stall of the shared host the run happened to meet (every
// round's times go to standard error). A regression that slows a
// quarter of the rounds or more widens the IQR and moves this figure.
func roundP99(xs []float64) float64 {
	q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75)
	return median(xs) + 2.326*(q3-q1)/1.349
}

// setRoundMetrics stores the end-to-end metrics of a bulk workload:
// medians over rounds, and the p99 of round time that roundP99 estimates.
func setRoundMetrics(rep *report, rs []roundTimes, w roundWork, setups []float64, heapMB float64) {
	v := rep.values
	round := median(secondsOf(rs, roundTimes.round))
	elems := median(secondsOf(rs, func(r roundTimes) time.Duration { return r.elements }))
	v["goodput_ops_s"] = w.ops / round
	v["p50_ms"] = round * 1e3
	v["p99_ms"] = roundP99(secondsOf(rs, roundTimes.round)) * 1e3
	v["elements_p50_ms"] = elems * 1e3
	v["elements_mcells_s"] = w.cells / elems / 1e6
	v["insert_mkeys_s"] = w.inserted / median(secondsOf(rs, func(r roundTimes) time.Duration { return r.insert })) / 1e6
	v["find_mkeys_s"] = w.found / median(secondsOf(rs, func(r roundTimes) time.Duration { return r.contains })) / 1e6
	v["delete_mkeys_s"] = w.deleted / median(secondsOf(rs, func(r roundTimes) time.Duration { return r.delete })) / 1e6
	v["setup_s"] = median(setups)
	v["live_heap_mb"] = heapMB
}

// setRoundTraceMetrics stores the per-layer metrics a bulk workload's
// traced run shares with the others: tracing overhead (traced rounds
// against untraced ones), counters and runtime figures.
func setRoundTraceMetrics(rep *report, rs []roundTimes, untraced int, w roundWork, tw *tracedWindow) {
	zeroMetrics(rep)
	before := median(secondsOf(rs[:untraced], roundTimes.round))
	after := median(secondsOf(rs[untraced:], roundTimes.round))
	rep.values["trace.overhead_goodput_pct"] = overheadPct(w.ops/before, w.ops/after, true)
	rep.values["trace.overhead_p50_pct"] = overheadPct(before, after, false)
	tw.setLayerMetrics(rep, float64(len(rs)-untraced)*w.ops)
}
