package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanName identifies the call a span times. Every span wraps one call
// the benchmark makes into a layer's public API (or, for the wire
// spans, one Read/Write the server makes on the connection the
// benchmark wrapped).
type spanName uint8

const (
	spClientDo     spanName = iota // epoch.Client.Do
	spClientWait                   // wait for the ClientFuture's Done (same id as its Do)
	spWireRead                     // server conn Read
	spWireWrite                    // server conn Write
	spSubmit                       // epoch.Server.Submit (in-process peel)
	spSubmitWait                   // wait for the Future's Done (same id as its Submit)
	spCoreEpoch                    // one replayed epoch (parent of the core.* calls)
	spCoreInsert                   // core.ShardedTable.InsertAll
	spCoreDelete                   // core.ShardedTable.DeleteAll
	spCoreFind                     // core.ShardedTable.FindAll
	spCoreElements                 // core.ShardedTable.Elements
	spRound                        // one bulk-phases or grow-build round (parent)
	spSetInsert                    // phasehash.Set.InsertAll
	spSetContains                  // phasehash.Set.ContainsAll
	spSetElements                  // phasehash.Set.Elements
	spSetDelete                    // phasehash.Set.DeleteAll
	spSetClear                     // phasehash.Set.Clear
	spGrowNew                      // phasehash.NewGrowSet
	spGrowInsert                   // phasehash.GrowSet.InsertAll
	spGrowContains                 // phasehash.GrowSet.ContainsAll
	spGrowElements                 // phasehash.GrowSet.Elements
	spGrowDelete                   // phasehash.GrowSet.DeleteAll
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.do", "client.wait", "wire.read", "wire.write",
	"epoch.submit", "epoch.wait",
	"core.epoch", "core.insert_all", "core.delete_all", "core.find_all", "core.elements",
	"round", "set.insert_all", "set.contains_all", "set.elements", "set.delete_all", "set.clear",
	"grow.new", "grow.insert_all", "grow.contains_all", "grow.elements", "grow.delete_all",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded call. parent is the 1-based index of the
// enclosing span in the tracer's buffer (0 for a root span); id ties
// together the spans of one request.
type span struct {
	start, end int64 // ns since the tracer's base
	id         uint64
	parent     int32
	name       spanName
}

// tracer records spans into a buffer allocated up front, so recording
// costs an atomic slot claim and two clock reads. While it is off, open
// returns 0 and close does nothing: the untraced runs pay one atomic
// load per call site.
type tracer struct {
	on      atomic.Bool
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open starts a span and returns its handle (0 when not recording).
func (t *tracer) open(name spanName, id uint64, parent int32) int32 {
	if !t.on.Load() {
		return 0
	}
	i := t.n.Add(1)
	if i > int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	s := &t.spans[i-1]
	s.name, s.id, s.parent = name, id, parent
	s.start = t.now()
	return int32(i)
}

// close ends the span h.
func (t *tracer) close(h int32) {
	if h != 0 {
		t.spans[h-1].end = t.now()
	}
}

// recorded returns the completed spans. Call it once recording has
// stopped and every recording goroutine has returned.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// spanAggs holds the per-name aggregates of the recorded spans.
type spanAggs [numSpanNames]spanAgg

// spanAgg is the aggregate of the recorded spans of one name.
type spanAgg struct {
	count int64
	total int64 // summed durations, ns
	self  int64 // summed durations minus the durations of direct children
}

// aggregate derives per-name totals and self times.
func aggregate(spans []span) spanAggs {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent > 0 {
			child[s.parent-1] += s.end - s.start
		}
	}
	var agg spanAggs
	for i, s := range spans {
		a := &agg[s.name]
		d := s.end - s.start
		a.count++
		a.total += d
		a.self += d - child[i]
	}
	return agg
}

// meanUs returns the mean duration of the named spans in microseconds.
func (a *spanAggs) meanUs(n spanName) float64 {
	if a[n].count == 0 {
		return 0
	}
	return float64(a[n].total) / float64(a[n].count) / 1e3
}

// writeSpans dumps every span as CSV (name,id,parent,start_ns,end_ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "index,name,id,parent,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i+1, s.name, s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-name span table to w.
func printSelfTimes(w io.Writer, agg *spanAggs) {
	var names []spanName
	for n := spanName(0); n < numSpanNames; n++ {
		if agg[n].count > 0 {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].self > agg[names[j]].self })
	fmt.Fprintf(w, "%-18s %10s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_us")
	for _, n := range names {
		a := agg[n]
		fmt.Fprintf(w, "%-18s %10d %12.3f %12.3f %12.3f\n", n, a.count,
			float64(a.total)/1e6, float64(a.self)/1e6, agg.meanUs(n))
	}
}

// finishTrace writes the run's spans to the output directory, prints
// their self-time table to standard error and stores the trace.*
// metrics.
func finishTrace(rep *report, o opts, tr *tracer) {
	spans := tr.recorded()
	agg := aggregate(spans)
	fmt.Fprintf(os.Stderr, "perfbench: %s: spans by self time\n", o.workload)
	printSelfTimes(os.Stderr, &agg)
	path := filepath.Join(o.outDir, "spans-"+o.workload+".csv")
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	}
	rep.values["trace.spans"] = float64(len(spans))
	rep.values["trace.dropped_spans"] = float64(tr.dropped.Load())
}
