package epoch

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"phasehash/internal/core"
)

// startWireServer serves a fresh epoch server on a loopback listener
// and returns its address plus a shutdown func.
func startWireServer(t *testing.T, cfg Config) (string, *Server, func()) {
	t.Helper()
	s := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := Serve(ctx, ln, s); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	shutdown := func() {
		cancel()
		<-serveDone
		closeCtx, closeCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer closeCancel()
		if err := s.Close(closeCtx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
	return ln.Addr().String(), s, shutdown
}

func TestWireRoundTrip(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 12, FlushInterval: time.Millisecond})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	for _, k := range []uint64{11, 22, 33} {
		res, err := c.Call(OpInsert, k, time.Second)
		if err != nil || res.Err != nil || !res.OK {
			t.Fatalf("insert %d: res=%+v err=%v", k, res, err)
		}
	}
	if res, _ := c.Call(OpFind, 22, time.Second); !res.OK || res.Value != 22 {
		t.Fatalf("find hit: %+v", res)
	}
	if res, _ := c.Call(OpFind, 99, time.Second); res.OK || res.Err != nil {
		t.Fatalf("find miss: %+v", res)
	}
	res, _ := c.Call(OpElements, 0, time.Second)
	if res.Err != nil || len(res.Elems) != 3 {
		t.Fatalf("elements: %+v", res)
	}
	got := append([]uint64(nil), res.Elems...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, want := range []uint64{11, 22, 33} {
		if got[i] != want {
			t.Fatalf("elements = %v", got)
		}
	}
	if res, _ := c.Call(OpDelete, 11, time.Second); !res.OK {
		t.Fatalf("delete: %+v", res)
	}
	if res, _ := c.Call(OpFind, 11, time.Second); res.OK {
		t.Fatalf("find after delete: %+v", res)
	}
}

// TestWirePipelined drives many concurrent in-flight requests through
// one connection and checks every response matches its request.
func TestWirePipelined(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 14, MaxBatch: 64, QueueLimit: 4096, FlushInterval: time.Millisecond})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	const n = 500
	futs := make([]*ClientFuture, n)
	for i := 0; i < n; i++ {
		futs[i], err = c.Do(OpInsert, uint64(i+1), time.Second)
		if err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
	}
	for i, f := range futs {
		<-f.Done()
		if res := f.Result(); res.Err != nil || !res.OK {
			t.Fatalf("insert %d: %+v", i, res)
		}
	}
	for i := 0; i < n; i++ {
		futs[i], err = c.Do(OpFind, uint64(i+1), time.Second)
		if err != nil {
			t.Fatalf("Do(find %d): %v", i, err)
		}
	}
	for i, f := range futs {
		<-f.Done()
		if res := f.Result(); !res.OK || res.Value != uint64(i+1) {
			t.Fatalf("find %d: %+v", i, res)
		}
	}
}

// TestWireOverloadStatus: a saturated fail-fast server refuses with
// StatusOverloaded on the wire instead of stalling the connection.
func TestWireOverloadStatus(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{
		Size: 1 << 12, MaxBatch: 8, QueueLimit: 8,
		FlushInterval: time.Millisecond, FlushDelay: 20 * time.Millisecond,
	})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	futs := make([]*ClientFuture, 0, 256)
	for i := 0; i < 256; i++ {
		f, err := c.Do(OpInsert, uint64(i+1), 0)
		if err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
		futs = append(futs, f)
	}
	okN, shedN := 0, 0
	for i, f := range futs {
		<-f.Done()
		switch res := f.Result(); {
		case res.Err == nil && res.OK:
			okN++
		case errors.Is(res.Err, ErrOverloaded):
			shedN++
		default:
			t.Fatalf("future %d: %+v", i, res)
		}
	}
	if shedN == 0 {
		t.Fatal("no StatusOverloaded under 32x queue pressure")
	}
	if okN == 0 {
		t.Fatal("everything shed: no goodput at all")
	}
	t.Logf("ok=%d overloaded=%d", okN, shedN)
}

// TestWireDeadlineStatus: a request whose deadline cannot be met comes
// back as StatusDeadline, not a hang.
func TestWireDeadlineStatus(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{
		Size: 1 << 12, FlushInterval: time.Millisecond, FlushDelay: 50 * time.Millisecond,
	})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Prime an epoch so the next request waits behind a slow flush.
	if _, err := c.Do(OpInsert, 1, 0); err != nil {
		t.Fatalf("prime: %v", err)
	}
	f, err := c.Do(OpInsert, 2, 100*time.Microsecond)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	<-f.Done()
	if res := f.Result(); !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("res = %+v, want DeadlineExceeded", res)
	}
}

// TestWireReservedStatus: inserting the reserved empty element is
// refused at admission and surfaces as StatusReserved.
func TestWireReservedStatus(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 10, FlushInterval: time.Millisecond})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	res, err := c.Call(OpInsert, core.Empty, time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !errors.Is(res.Err, core.ErrReservedKey) {
		t.Fatalf("res = %+v, want ErrReservedKey", res)
	}
}

// TestWireUnknownOpStatus: a frame whose op byte names no operation
// is refused at admission with an error status; it never reaches an
// epoch, so it cannot pack the table as an Elements read.
func TestWireUnknownOpStatus(t *testing.T) {
	addr, s, shutdown := startWireServer(t, Config{Size: 1 << 10, FlushInterval: time.Millisecond})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	res, err := c.Call(Op(200), 1, time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if res.Err == nil || res.Elems != nil {
		t.Fatalf("res = %+v, want an error status and no elements", res)
	}
	if st := s.Stats(); st.Admitted != 0 || st.ReadOps != 0 {
		t.Fatalf("unknown op was admitted: %+v", st)
	}
}

// TestWireShutdownMidTraffic: shutting the server down under live
// client traffic must not wedge either side — the client sees clean
// refusals or transport EOF, and shutdown completes.
func TestWireShutdownMidTraffic(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 12, FlushInterval: time.Millisecond})

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	stop := make(chan struct{})
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Do(OpInsert, i, 10*time.Millisecond); err != nil {
				return // transport closed by shutdown: expected
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown wedged under live traffic")
	}
	close(stop)
	select {
	case <-clientDone:
	case <-time.After(5 * time.Second):
		t.Fatal("client goroutine wedged after shutdown")
	}
}

// TestClientBackpressure: against a peer that accepts and never reads,
// Do must stall once the pending-write bound and the socket buffers are
// full (bounded memory, as a blocking flush would), and Close must then
// release the blocked Do with an error instead of leaving it hung.
func TestClientBackpressure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		// Small kernel buffers keep the bytes the socket absorbs, and
		// so the futures the stall leaves pending, few.
		conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		accepted <- conn
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	peer := <-accepted
	if peer == nil {
		t.Fatal("accept failed")
	}
	defer peer.Close()

	// Far more requests than the bound and the socket buffers hold; a
	// client that never blocks stops here rather than exhausting memory.
	const most = 1 << 17
	var issued atomic.Int64
	doErr := make(chan error, 1)
	go func() {
		for i := uint64(1); i <= most; i++ {
			if _, err := c.Do(OpInsert, i, 0); err != nil {
				doErr <- err
				return
			}
			issued.Add(1)
		}
		doErr <- nil
	}()

	// Wait until Do stops making progress: the caller is stalled.
	last := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(100 * time.Millisecond)
		n := issued.Load()
		if n == most {
			t.Fatalf("Do never blocked against a peer that does not read (%d issued)", n)
		}
		if n == last {
			break
		}
		last = n
		if time.Now().After(deadline) {
			t.Fatalf("Do never blocked against a peer that does not read (%d issued)", n)
		}
	}
	select {
	case err := <-doErr:
		t.Fatalf("Do returned instead of blocking: %v", err)
	default:
	}
	c.mu.Lock()
	pendingBytes := len(c.wbuf)
	c.mu.Unlock()
	if pendingBytes < maxPendingWrite {
		t.Fatalf("stalled with %d bytes pending, below the %d-byte bound", pendingBytes, maxPendingWrite)
	}
	t.Logf("Do blocked after %d requests (%d bytes pending)", last, pendingBytes)

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case err := <-doErr:
		if err == nil {
			t.Fatal("blocked Do released without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the blocked Do")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung against a peer that does not read")
	}
}

// TestWireBlockDeadline: in blocking admission, a wire request whose
// deadline passes while it waits for queue space comes back
// StatusDeadline at its deadline, not when the queue next drains.
func TestWireBlockDeadline(t *testing.T) {
	const flushDelay = time.Second
	addr, s, shutdown := startWireServer(t, Config{
		Size: 1 << 10, MaxBatch: 1, QueueLimit: 1, Block: true,
		FlushInterval: time.Millisecond, FlushDelay: flushDelay,
	})
	defer shutdown()

	filler, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer filler.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// The first op is taken into a slow epoch; the second then holds
	// the only queue slot until that epoch ends.
	for k := uint64(1); k <= 2; k++ {
		if _, err := filler.Do(OpInsert, k, 0); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Admitted < 2 || s.QueueDepth() < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v depth %d", s.Stats(), s.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	t0 := time.Now()
	res, err := c.Call(OpFind, 1, time.Millisecond)
	took := time.Since(t0)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("res = %+v, want DeadlineExceeded", res)
	}
	if took >= flushDelay/2 {
		t.Fatalf("blocked admission gave up after %v; the deadline was 1ms (flush delay %v)", took, flushDelay)
	}
	if st := s.Stats(); st.ShedOverload != 1 {
		t.Fatalf("ShedOverload = %d, want 1 (the expired blocked wait)", st.ShedOverload)
	}
}

// TestClientNoLeak: Dial, traffic and Close leave no goroutine behind
// on either side, the client's writer included.
func TestClientNoLeak(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 10, FlushInterval: time.Millisecond})
	defer shutdown()
	before := runtime.NumGoroutine()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for k := uint64(1); k <= 64; k++ {
		res, err := c.Call(OpInsert, k, time.Second)
		if err != nil || res.Err != nil {
			t.Fatalf("insert %d: res=%+v err=%v", k, res, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Do(OpFind, 1, 0); err == nil {
		t.Fatal("Do after Close succeeded")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before Dial, %d after Close", before, now)
	}
}

// TestClientConcurrentDo: several goroutines sharing one Client have
// their frames coalesced into common writes; every response must still
// reach the future of the request it answers.
func TestClientConcurrentDo(t *testing.T) {
	addr, _, shutdown := startWireServer(t, Config{Size: 1 << 14, MaxBatch: 64, QueueLimit: 4096, FlushInterval: time.Millisecond})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	const workers, each = 4, 256
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			futs := make([]*ClientFuture, each)
			var err error
			for i := range futs {
				key := uint64(w*each + i + 1)
				if futs[i], err = c.Do(OpInsert, key, time.Second); err != nil {
					errs <- fmt.Errorf("Do(insert %d): %w", key, err)
					return
				}
			}
			for i := range futs {
				<-futs[i].Done()
				if res := futs[i].Result(); res.Err != nil || !res.OK {
					errs <- fmt.Errorf("insert %d: %+v", w*each+i+1, res)
					return
				}
			}
			for i := range futs {
				key := uint64(w*each + i + 1)
				if futs[i], err = c.Do(OpFind, key, time.Second); err != nil {
					errs <- fmt.Errorf("Do(find %d): %w", key, err)
					return
				}
			}
			for i, f := range futs {
				<-f.Done()
				if res := f.Result(); !res.OK || res.Value != uint64(w*each+i+1) {
					errs <- fmt.Errorf("find %d: %+v", w*each+i+1, res)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
