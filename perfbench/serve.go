package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"phasehash/internal/core"
	"phasehash/internal/epoch"
	"phasehash/internal/obs"
)

// serve-point is a self-hosted epoch.Server over 127.0.0.1 TCP, driven
// by a closed loop of epoch.Client connections.
const (
	serveCells    = 1 << 20
	serveKeys     = 1 << 16 // keys are uniform in [1, serveKeys]
	serveConns    = 2
	serveDeadline = time.Second
	serveMaxBatch = 1024
	serveFlush    = time.Millisecond
	serveWarmup   = time.Second
	serveSetups   = 41                     // set-ups timed per run; setup_s is their median
	serveSub      = 250 * time.Millisecond // the window is cut into sub-windows this long
	elemsProbes   = 61                     // quiescent Elements calls timed per run

	// serveInflight is the requests in flight per connection. With both
	// connections together at MaxBatch the two CPUs are saturated, so
	// per-request costs set goodput and no epoch is split. Fewer leave
	// the CPUs idle part of the time (about half at 64 per connection),
	// and goodput and latency then follow how fast the shared host wakes
	// an idle vCPU.
	serveInflight = serveMaxBatch / serveConns
)

// Request classes, for per-class counts.
const (
	clsInsert = iota
	clsFind
	clsDelete
	numClasses
)

var opOfClass = [numClasses]epoch.Op{epoch.OpInsert, epoch.OpFind, epoch.OpDelete}

// nextRequest draws one request of the mix: 50% insert, 25% find,
// 25% delete, on uniform keys.
func nextRequest(r *rng) (cls int, key uint64) {
	p := r.below(100)
	key = 1 + r.below(serveKeys)
	switch {
	case p < 50:
		return clsInsert, key
	case p < 75:
		return clsFind, key
	default:
		return clsDelete, key
	}
}

// servePrefill returns the keys present at steady occupancy: under a
// mix of 2 inserts per delete each key is present with probability
// 2/3, independently, so the table starts where the closed loop would
// settle instead of climbing there during the window.
func servePrefill(seed uint64) []uint64 {
	r := newRNG(seed, 1)
	var keys []uint64
	for k := uint64(1); k <= serveKeys; k++ {
		if r.below(3) < 2 {
			keys = append(keys, k)
		}
	}
	return keys
}

// serving is one running server with its listener and clients.
type serving struct {
	srv       *epoch.Server
	cancel    context.CancelFunc
	serveDone chan error
	clients   []*epoch.Client
	wire      *wireStats
}

// startServing builds the table, hands it to a server, serves it on a
// wrapped loopback listener and dials the clients.
func startServing(prefill []uint64, tr *tracer) (*serving, error) {
	table := core.NewShardedTable[core.SetOps](serveCells, 0)
	table.InsertAll(prefill)
	srv := epoch.NewServerWith(epoch.Config{
		Size:          serveCells,
		MaxBatch:      serveMaxBatch,
		FlushInterval: serveFlush,
	}, table)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &serving{srv: srv, cancel: cancel, serveDone: make(chan error, 1), wire: &wireStats{}}
	wl := &wireListener{Listener: ln, st: s.wire, tr: tr}
	go func() { s.serveDone <- epoch.Serve(ctx, wl, srv) }()
	for i := 0; i < serveConns; i++ {
		c, err := epoch.Dial(ln.Addr().String())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// stop closes the clients, stops serving and drains the server.
func (s *serving) stop() error {
	for _, c := range s.clients {
		c.Close()
	}
	s.cancel()
	err := <-s.serveDone
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if cerr := s.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// window is the measured span of a serving run and its n sub-windows.
type window struct {
	start time.Time
	sub   time.Duration
	n     int
}

// newWindow cuts a window of length win, starting after the warm-up,
// into sub-windows of about serveSub (at least 4, and an even number so
// a traced run can split it in halves).
func newWindow(win time.Duration) window {
	n := max(4, int(win/serveSub)&^1)
	return window{start: time.Now().Add(serveWarmup), sub: win / time.Duration(n), n: n}
}

func (w window) index(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 {
		return -1
	}
	i := int(d / w.sub)
	if i >= w.n {
		return -1
	}
	return i
}

// subOutcome tallies what one connection saw in one sub-window.
type subOutcome struct {
	point  Hist // latency of completed ops (ns)
	done   [numClasses]int64
	tried  int64
	shedOv int64
	shedDl int64
	other  int64
}

// outcome is one connection's tallies, one per sub-window, allocated
// before the load starts.
type outcome []subOutcome

// loadConn is one connection's closed loop: it keeps serveInflight
// requests outstanding and waits on the oldest (responses arrive in
// request order on a connection).
type loadConn struct {
	id    uint64
	r     *rng
	tr    *tracer
	out   outcome
	bad   atomic.Int64
	first atomic.Pointer[string]
}

type pendingReq struct {
	cls int
	key uint64
	id  uint64
	t0  time.Time
	cf  *epoch.ClientFuture
	f   *epoch.Future
	rel context.CancelFunc
}

func (lc *loadConn) problem(format string, args ...any) {
	lc.bad.Add(1)
	s := fmt.Sprintf(format, args...)
	lc.first.CompareAndSwap(nil, &s)
}

// check validates one completed response.
func (lc *loadConn) check(cls int, key uint64, res epoch.Result) {
	switch cls {
	case clsInsert:
		if !res.OK {
			lc.problem("insert %d returned ok status without OK", key)
		}
	case clsFind:
		if res.OK && res.Value != key {
			lc.problem("find %d returned %d", key, res.Value)
		}
	}
}

// checkServedElements verifies an Elements reply: every element is a
// key of the range and none repeats.
func checkServedElements(elems []uint64, seen bitset) error {
	clear(seen)
	if len(elems) > serveKeys {
		return fmt.Errorf("%d elements for %d keys", len(elems), serveKeys)
	}
	for _, e := range elems {
		if e < 1 || e > serveKeys {
			return fmt.Errorf("element %d outside [1, %d]", e, serveKeys)
		}
		if seen.has(e) {
			return fmt.Errorf("element %d repeated", e)
		}
		seen.add(e)
	}
	return nil
}

// settle classifies a completed request at time t1.
func (lc *loadConn) settle(w window, cls int, key uint64, t0, t1 time.Time, res epoch.Result) {
	i := w.index(t1)
	var ok bool
	switch {
	case res.Err == nil:
		ok = true
		lc.check(cls, key, res)
	case errors.Is(res.Err, epoch.ErrOverloaded):
		if i >= 0 {
			lc.out[i].shedOv++
		}
	case errors.Is(res.Err, context.DeadlineExceeded):
		if i >= 0 {
			lc.out[i].shedDl++
		}
	default:
		if i >= 0 {
			lc.out[i].other++
		}
		lc.problem("%s %d: unexpected outcome %v", opOfClass[cls], key, res.Err)
	}
	if i < 0 {
		return
	}
	lc.out[i].tried++
	if !ok {
		return
	}
	lc.out[i].done[cls]++
	lc.out[i].point.Record(int64(t1.Sub(t0)))
}

// closedLoop keeps serveInflight requests outstanding until stop is
// set, then drains them. issue sends p (and settles it itself when it
// fails); wait blocks until p's result is in. Requests settle in issue
// order, which is also the order responses arrive on a connection.
func (lc *loadConn) closedLoop(w window, stop *atomic.Bool,
	issue func(p *pendingReq) error, wait func(p *pendingReq) epoch.Result) {
	var ring [serveInflight]pendingReq
	head, n := 0, 0
	var seq uint64
	for {
		if n < serveInflight && !stop.Load() {
			p := &ring[(head+n)%serveInflight]
			p.cls, p.key = nextRequest(lc.r)
			seq++
			p.id = lc.id<<40 | seq
			p.t0 = time.Now()
			if issue(p) == nil {
				n++
			}
			continue
		}
		if n == 0 {
			return
		}
		p := &ring[head]
		res := wait(p)
		lc.settle(w, p.cls, p.key, p.t0, time.Now(), res)
		head = (head + 1) % serveInflight
		n--
	}
}

// spanEvery is the share of requests that record spans in a traced run:
// one in spanEvery of each connection. All of them would overflow the
// span buffer at full load; figures summed over the spans are scaled
// back by spanEvery.
const spanEvery = 4

// open starts a span of p's request when p is one that records spans.
func (lc *loadConn) open(name spanName, p *pendingReq) int32 {
	if p.id%spanEvery != 0 {
		return 0
	}
	return lc.tr.open(name, p.id, 0)
}

// runClient drives c, over the socket.
func (lc *loadConn) runClient(c *epoch.Client, w window, stop *atomic.Bool) {
	lc.closedLoop(w, stop, func(p *pendingReq) error {
		h := lc.open(spClientDo, p)
		f, err := c.Do(opOfClass[p.cls], p.key, serveDeadline)
		lc.tr.close(h)
		if err != nil {
			lc.problem("client %d: Do: %v", lc.id, err)
			stop.Store(true)
		}
		p.cf = f
		return err
	}, func(p *pendingReq) epoch.Result {
		h := lc.open(spClientWait, p)
		<-p.cf.Done()
		lc.tr.close(h)
		res := p.cf.Result()
		p.cf = nil
		return res
	})
}

// runInproc drives srv.Submit directly, with the per-request deadline
// context the server's connection reader would build: the in-process
// peel, with no socket in the way.
func (lc *loadConn) runInproc(srv *epoch.Server, w window, stop *atomic.Bool) {
	lc.closedLoop(w, stop, func(p *pendingReq) error {
		ctx, cancel := context.WithTimeout(context.Background(), serveDeadline)
		h := lc.open(spSubmit, p)
		f, err := srv.Submit(ctx, opOfClass[p.cls], p.key)
		lc.tr.close(h)
		if err != nil {
			cancel()
			lc.settle(w, p.cls, p.key, p.t0, time.Now(), epoch.Result{Err: err})
		}
		p.f, p.rel = f, cancel
		return err
	}, func(p *pendingReq) epoch.Result {
		h := lc.open(spSubmitWait, p)
		<-p.f.Done()
		lc.tr.close(h)
		p.rel()
		res := p.f.Result()
		p.f, p.rel = nil, nil
		return res
	})
}

// Serving figures are taken per sub-window of serveSub and reported as
// the median over the sub-windows. Every sub-window counts, and a
// regression that shows in most of them moves the figure, while the
// host's stalls, which on a shared VM come in bursts that raise the tail
// of some sub-windows, do not take a whole run with them. A tail
// regression confined to fewer than half of the sub-windows, such as a
// rare long pause, does not move p99_ms: the p50 and p99 of the whole
// window's merged histogram go to standard error to show it.

// summary is the merged view of a set of sub-windows.
type summary struct {
	goodput, p50, p99      float64             // ops/s, ms, ms: medians over sub-windows
	perClass               [numClasses]float64 // completed Mops/s by class, median over sub-windows
	merged                 Hist                // latency over all the sub-windows (ns)
	tried, failed, done    int64
	shedOv, shedDl, others int64
}

// summarize merges the connections' outcomes over sub-windows [lo, hi).
func summarize(outs []outcome, lo, hi int, sub time.Duration) *summary {
	s := &summary{}
	var good, p50, p99 []float64
	var cls [numClasses][]float64
	for i := lo; i < hi; i++ {
		var h Hist
		var done [numClasses]int64
		for _, o := range outs {
			h.Merge(&o[i].point)
			for c := range done {
				done[c] += o[i].done[c]
			}
			s.tried += o[i].tried
			s.shedOv += o[i].shedOv
			s.shedDl += o[i].shedDl
			s.others += o[i].other
		}
		s.merged.Merge(&h)
		var all int64
		for c, d := range done {
			all += d
			cls[c] = append(cls[c], float64(d)/sub.Seconds()/1e6)
		}
		s.done += all
		good = append(good, float64(all)/sub.Seconds())
		p50 = append(p50, h.Quantile(0.50)/1e6)
		p99 = append(p99, h.Quantile(0.99)/1e6)
	}
	s.failed = s.shedOv + s.shedDl + s.others
	s.goodput, s.p50, s.p99 = median(good), median(p50), median(p99)
	for c := range cls {
		s.perClass[c] = median(cls[c])
	}
	return s
}

// drive runs the closed loop on every connection: a warm-up, then the
// measured window; at is called at the start of each sub-window i and
// at its end (i = w.n), so a caller can switch tracing on and take
// snapshots at sub-window boundaries.
func drive(seed uint64, tr *tracer, win time.Duration,
	run func(lc *loadConn, w window, stop *atomic.Bool), at func(i int, w window)) ([]outcome, []*loadConn, window) {
	w := newWindow(win)
	var stop atomic.Bool
	var wg sync.WaitGroup
	outs := make([]outcome, serveConns)
	lcs := make([]*loadConn, serveConns)
	for i := range outs {
		outs[i] = make(outcome, w.n)
		lcs[i] = &loadConn{id: uint64(i + 1), r: newRNG(seed, 100+uint64(i)), tr: tr, out: outs[i]}
		wg.Add(1)
		go func(lc *loadConn) {
			defer wg.Done()
			run(lc, w, &stop)
		}(lcs[i])
	}
	for i := 0; i <= w.n; i++ {
		time.Sleep(time.Until(w.start.Add(time.Duration(i) * w.sub)))
		if at != nil {
			at(i, w)
		}
	}
	stop.Store(true)
	wg.Wait()
	return outs, lcs, w
}

func runServe(o opts) (*report, error) {
	rep := newReport()
	prefill := servePrefill(o.seed)
	tr := newTracer(0)
	if o.trace {
		tr = newTracer(4 << 20)
	}

	// Set-up: table, prefill, server, listener and dials. It is timed
	// serveSetups times, about half before the window and half after it,
	// each on memory handed back to the OS first so every set-up pays its
	// own page faults. The set-up just before the window is kept.
	var setups []float64
	setUp := func() (*serving, error) {
		// The automatic shard policy reads the counter core's imbalance
		// gauge: start every set-up from the same zeroed core.
		obs.CoreReset()
		debug.FreeOSMemory()
		t0 := time.Now()
		s, err := startServing(prefill, tr)
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
		}
		return s, err
	}
	timeSetups := func(n int) error {
		for i := 0; i < n; i++ {
			s, err := setUp()
			if err != nil {
				return err
			}
			if err := s.stop(); err != nil {
				return err
			}
		}
		return nil
	}

	// Elements latency: the mix has no Elements, so it is timed by
	// quiescent calls on the served table, about half before the window
	// and half after it.
	var probes []float64
	elemsSeen := newBitset(serveKeys + 1)
	probe := func(c *epoch.Client, n int) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			res, err := c.Call(epoch.OpElements, 0, serveDeadline)
			d := time.Since(t0)
			if err == nil {
				err = res.Err
			}
			if err == nil {
				err = checkServedElements(res.Elems, elemsSeen)
			}
			if err != nil {
				rep.fail("quiescent elements: %v", err)
				return
			}
			probes = append(probes, d.Seconds()*1e3)
		}
	}

	if err := timeSetups(serveSetups / 2); err != nil {
		return nil, err
	}
	s, err := setUp()
	if err != nil {
		return nil, err
	}
	probe(s.clients[0], elemsProbes/2)

	var (
		tw             tracedWindow
		stats0, stats1 epoch.Stats
		depthSum       atomic.Int64
		depthN         atomic.Int64
		stopSampler    = make(chan struct{})
		samplerDone    = make(chan struct{})
	)
	var at func(i int, w window)
	if o.trace {
		at = func(i int, w window) {
			switch i {
			case w.n / 2:
				stats0 = s.srv.Stats()
				tw.begin(tr)
				go func() {
					defer close(samplerDone)
					t := time.NewTicker(time.Millisecond)
					defer t.Stop()
					for {
						select {
						case <-stopSampler:
							return
						case <-t.C:
							depthSum.Add(int64(s.srv.QueueDepth()))
							depthN.Add(1)
						}
					}
				}()
			case w.n:
				tw.end(tr)
				close(stopSampler)
				<-samplerDone
				stats1 = s.srv.Stats()
			}
		}
	}
	outs, lcs, w := drive(o.seed, tr, o.window, func(lc *loadConn, w window, stop *atomic.Bool) {
		lc.runClient(s.clients[lc.id-1], w, stop)
	}, at)
	all := summarize(outs, 0, w.n, w.sub)
	untraced := summarize(outs, 0, w.n/2, w.sub)
	traced := summarize(outs, w.n/2, w.n, w.sub)
	for i := 0; i < w.n; i++ {
		s := summarize(outs, i, i+1, w.sub)
		fmt.Fprintf(os.Stderr, "perfbench: serve-point: sub-window %d: %.0f ops/s p50 %.3f ms p99 %.3f ms\n",
			i, s.goodput, s.p50, s.p99)
	}
	// The live heap is the program's: drop the generator's histograms.
	for _, lc := range lcs {
		lc.out = nil
	}
	heap := liveHeapMB()

	probe(s.clients[0], elemsProbes-elemsProbes/2)
	if err := s.stop(); err != nil {
		return nil, err
	}
	checkServed(rep, s.srv, lcs)
	if err := timeSetups(serveSetups - serveSetups/2 - 1); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-point: set-ups (s): %.4f\n", setups)
	fmt.Fprintf(os.Stderr, "perfbench: serve-point: quiescent Elements calls (ms): %.2f\n", probes)

	fmt.Fprintf(os.Stderr, "perfbench: serve-point: whole window: %.0f ops/s p50 %.3f ms p99 %.3f ms\n",
		float64(all.done)/(time.Duration(w.n)*w.sub).Seconds(), all.merged.Quantile(0.5)/1e6, all.merged.Quantile(0.99)/1e6)
	rep.attempted, rep.failed = all.tried, all.failed
	if all.others > 0 {
		rep.fail("%d responses with unexpected status", all.others)
	}
	if all.done == 0 {
		rep.fail("no request completed in the window")
	}
	elemsP50 := median(probes)
	if !o.trace {
		rep.values["setup_s"] = median(setups)
		rep.values["goodput_ops_s"] = all.goodput
		rep.values["p50_ms"] = all.p50
		rep.values["p99_ms"] = all.p99
		rep.values["elements_p50_ms"] = elemsP50
		rep.values["insert_mkeys_s"] = all.perClass[clsInsert]
		rep.values["find_mkeys_s"] = all.perClass[clsFind]
		rep.values["delete_mkeys_s"] = all.perClass[clsDelete]
		rep.values["elements_mcells_s"] = serveCells / (elemsP50 / 1e3) / 1e6
		rep.values["live_heap_mb"] = heap
		return rep, nil
	}

	// Traced run: the first half of the window ran untraced, the second
	// traced; the per-layer figures come from the traced half.
	zeroMetrics(rep)
	agg := aggregate(tr.recorded())
	ops := float64(traced.done)
	v := rep.values
	v["failed_frac"] = float64(all.failed) / float64(max(all.tried, 1))
	v["trace.overhead_goodput_pct"] = overheadPct(untraced.goodput, traced.goodput, true)
	v["trace.overhead_p50_pct"] = overheadPct(untraced.p50, traced.p50, false)
	v["client.do_us"] = agg.meanUs(spClientDo)
	v["client.do_busy_frac"] = float64(agg[spClientDo].total) * spanEvery / 1e9 / (tw.secs * procs)
	v["wire.read_calls_per_op"] = float64(s.wire.reads.Load()) / ops
	v["wire.write_calls_per_op"] = float64(s.wire.writes.Load()) / ops
	v["wire.write_bytes_per_op"] = float64(s.wire.writeBytes.Load()) / ops
	v["wire.write_busy_frac"] = float64(agg[spWireWrite].total) / 1e9 / (tw.secs * procs)
	epochs := float64(stats1.Epochs - stats0.Epochs)
	seen := float64(stats1.Admitted-stats0.Admitted) + float64(stats1.ShedOverload-stats0.ShedOverload)
	if epochs > 0 {
		v["epoch.ops_per_epoch"] = float64(stats1.FlushedOps-stats0.FlushedOps) / epochs
		v["epoch.split_frac"] = float64(stats1.Splits-stats0.Splits) / epochs
	}
	v["epoch.epochs_per_s"] = epochs / tw.secs
	if n := depthN.Load(); n > 0 {
		v["epoch.queue_depth_mean"] = float64(depthSum.Load()) / float64(n)
	}
	v["epoch.max_queue"] = float64(stats1.MaxQueue)
	if seen > 0 {
		v["epoch.shed_deadline_frac"] = float64(stats1.ShedDeadline-stats0.ShedDeadline) / seen
		v["epoch.shed_overload_frac"] = float64(stats1.ShedOverload-stats0.ShedOverload) / seen
	}
	tw.setLayerMetrics(rep, ops)

	// In-process peel and kernel replay, traced as well.
	if err := inprocPeel(rep, o, prefill, tr, traced.p50); err != nil {
		return nil, err
	}
	shape := epochShape{
		insert: float64(stats1.InsertOps-stats0.InsertOps) / epochs,
		delete: float64(stats1.DeleteOps-stats0.DeleteOps) / epochs,
		read:   float64(stats1.ReadOps-stats0.ReadOps) / epochs,
		perSec: epochs / tw.secs,
	}
	kernelReplay(rep, o, prefill, tr, shape)
	finishTrace(rep, o, tr)
	return rep, nil
}

// checkServed runs the post-drain checks of a serving run.
func checkServed(rep *report, srv *epoch.Server, lcs []*loadConn) {
	for _, lc := range lcs {
		if n := lc.bad.Load(); n > 0 {
			rep.fail("connection %d: %d bad responses, first: %s", lc.id, n, *lc.first.Load())
		}
	}
	if err := srv.Table().CheckInvariant(); err != nil {
		rep.fail("table invariant after drain: %v", err)
	}
	if n, e := srv.Table().Count(), len(srv.Table().Elements()); n != e {
		rep.fail("drained table counts %d elements but packs %d", n, e)
	}
}

// setCoreMetrics stores the core.* counter and parallel.* metrics from a
// counter-core delta taken over secs seconds.
func setCoreMetrics(rep *report, c obs.CoreStats, secs float64) {
	v := rep.values
	v["core.insert_probe_pm"] = float64(c.MeanProbePm("insert"))
	v["core.find_probe_pm"] = float64(c.MeanProbePm("find"))
	v["core.delete_probe_pm"] = float64(c.MeanProbePm("delete"))
	v["core.find_hit_pm"] = float64(c.HitSharePm())
	v["core.shard_imbalance_pm"] = float64(c.MaxShardImbalancePm)
	if c.ParDispatches > 0 {
		v["parallel.items_per_dispatch"] = float64(c.ParItems) / float64(c.ParDispatches)
		v["parallel.blocks_per_dispatch"] = float64(c.ParBlocks) / float64(c.ParDispatches)
	}
	v["parallel.dispatches_per_s"] = float64(c.ParDispatches) / secs
}

// inprocPeel sends the same request stream through Server.Submit on a
// fresh server with no socket, for a fifth of the window, traced.
func inprocPeel(rep *report, o opts, prefill []uint64, tr *tracer, wireP50 float64) error {
	table := core.NewShardedTable[core.SetOps](serveCells, 0)
	table.InsertAll(prefill)
	srv := epoch.NewServerWith(epoch.Config{Size: serveCells, MaxBatch: serveMaxBatch, FlushInterval: serveFlush}, table)
	win := o.window / 5
	outs, lcs, w := drive(o.seed+1, tr, win, func(lc *loadConn, w window, stop *atomic.Bool) {
		lc.runInproc(srv, w, stop)
	}, func(i int, w window) { tr.on.Store(i < w.n) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		return err
	}
	checkServed(rep, srv, lcs)
	in := summarize(outs, 0, w.n, w.sub)
	if in.others > 0 {
		rep.fail("in-process peel: %d unexpected outcomes", in.others)
	}
	agg := aggregate(tr.recorded())
	rep.values["epoch.submit_us"] = agg.meanUs(spSubmit)
	rep.values["epoch.inproc_p50_ms"] = in.merged.Quantile(0.5) / 1e6
	rep.values["epoch.inproc_goodput_ops_s"] = float64(in.done) / win.Seconds()
	rep.values["wire.p50_share_ms"] = wireP50 - rep.values["epoch.inproc_p50_ms"]
	return nil
}

// epochShape is the mean per-epoch batch observed in the traced window.
type epochShape struct {
	insert, delete, read float64 // ops per epoch
	perSec               float64 // epochs per second
}

// kernelReplay applies epochs of the observed shape straight to a fresh
// core.ShardedTable, timing each bulk call: what the kernels cost per
// epoch, and so what kernel work can buy at most. It also times a few
// Elements packs of the table, the kernel cost of an Elements request.
func kernelReplay(rep *report, o opts, prefill []uint64, tr *tracer, shape epochShape) {
	table := core.NewShardedTable[core.SetOps](serveCells, 0)
	table.InsertAll(prefill)
	r := newRNG(o.seed, 7)
	batch := func(n float64) []uint64 {
		ks := make([]uint64, int(n+0.5))
		for i := range ks {
			ks[i] = 1 + r.below(serveKeys)
		}
		return ks
	}
	var insT, delT, readT, elemT time.Duration
	var insN, delN, readN int
	tr.on.Store(true)
	deadline := time.Now().Add(o.window / 10)
	for e := 0; e < 5000 && time.Now().Before(deadline); e++ {
		ins, del, fnd := batch(shape.insert), batch(shape.delete), batch(shape.read)
		dst := make([]uint64, len(fnd))
		h := tr.open(spCoreEpoch, uint64(e), 0)
		if len(ins) > 0 {
			insT += timedCall(tr, spCoreInsert, 0, h, func() { table.InsertAll(ins) })
			insN++
		}
		if len(del) > 0 {
			delT += timedCall(tr, spCoreDelete, 0, h, func() { table.DeleteAll(del) })
			delN++
		}
		if len(fnd) > 0 {
			readT += timedCall(tr, spCoreFind, 0, h, func() { table.FindAll(fnd, dst) })
			readN++
		}
		tr.close(h)
	}
	const elemN = 5
	for i := 0; i < elemN; i++ {
		elemT += timedCall(tr, spCoreElements, 0, 0, func() { table.Elements() })
	}
	tr.on.Store(false)
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / 1e3
	}
	v := rep.values
	v["core.epoch_insert_us"] = mean(insT, insN)
	v["core.epoch_delete_us"] = mean(delT, delN)
	v["core.epoch_read_us"] = mean(readT, readN)
	v["core.epoch_elements_us"] = mean(elemT, elemN)
	perEpochUs := v["core.epoch_insert_us"] + v["core.epoch_delete_us"] + v["core.epoch_read_us"]
	v["core.kernel_busy_frac"] = shape.perSec * perEpochUs / 1e6
}
