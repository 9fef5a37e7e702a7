package epoch

// Wire protocol for serving an epoch Server over a byte stream
// (cmd/phserver listens, cmd/phload -server drives). The protocol is
// deliberately tiny and stdlib-only:
//
//	request  (21 bytes, little-endian):
//	    id uint64 | op uint8 | key uint64 | timeout_us uint32
//	response (21-byte header + payload):
//	    id uint64 | status uint8 | value uint64 | nelems uint32
//	    followed by nelems little-endian uint64 elements (OpElements).
//
// Requests pipeline freely; responses come back in request order per
// connection (ops from one connection land in epochs in submission
// order, and epochs complete in order, so in-order delivery adds no
// latency). timeout_us is the per-request deadline; 0 means none. The
// server stamps it as an absolute time (read time + timeout_us) on the
// admitted op, so a request costs one clock read and no context or
// timer; the flusher sheds the op once that time has passed.
// Admission refusals (StatusOverloaded, StatusClosed, ...) use the
// same response frames, so an overloaded server degrades into explicit
// per-request shed signals, never into dropped bytes or stalled
// connections.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"phasehash/internal/core"
)

// Response status codes.
const (
	StatusOK         uint8 = iota // op executed; find hit carries the value
	StatusMiss                    // find executed, key absent
	StatusOverloaded              // refused at admission: queue at limit
	StatusDeadline                // deadline expired (blocked admission or shed before flush)
	StatusClosed                  // server is shutting down
	StatusFull                    // insert did not land: table saturated
	StatusCancelled               // result delivery cancelled mid-epoch
	StatusReserved                // insert of the reserved empty element
	StatusInternal                // unexpected server-side error
)

const (
	reqFrameLen  = 21
	respFrameLen = 21
	// maxWireElems bounds an OpElements payload a client will accept
	// (defense against a corrupt length header, not a protocol limit).
	maxWireElems = 1 << 28
)

// statusOf maps a resolved Result to its wire status.
func statusOf(res Result, op Op) uint8 {
	switch {
	case res.Err == nil:
		if op == OpFind && !res.OK {
			return StatusMiss
		}
		return StatusOK
	case errors.Is(res.Err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(res.Err, ErrClosed):
		return StatusClosed
	case errors.Is(res.Err, core.ErrFull):
		return StatusFull
	case errors.Is(res.Err, core.ErrReservedKey):
		return StatusReserved
	case errors.Is(res.Err, context.DeadlineExceeded):
		return StatusDeadline
	case errors.Is(res.Err, context.Canceled):
		return StatusCancelled
	default:
		return StatusInternal
	}
}

// errOf is the client-side inverse of statusOf.
func errOf(status uint8) error {
	switch status {
	case StatusOK, StatusMiss:
		return nil
	case StatusOverloaded:
		return ErrOverloaded
	case StatusClosed:
		return ErrClosed
	case StatusFull:
		return core.ErrFull
	case StatusReserved:
		return core.ErrReservedKey
	case StatusDeadline:
		return context.DeadlineExceeded
	case StatusCancelled:
		return context.Canceled
	default:
		return fmt.Errorf("epoch: server reported status %d", status)
	}
}

// Serve accepts connections on l and relays their requests into s
// until ctx is done (or l is closed). It returns the first accept
// error (net.ErrClosed after a clean shutdown). Serve does not own s:
// closing the epoch server is the caller's shutdown step.
func Serve(ctx context.Context, l net.Listener, s *Server) error {
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			serveConn(ctx, conn, s)
		}()
	}
}

// inflight is one admitted (or locally refused) request awaiting its
// in-order response slot.
type inflight struct {
	id  uint64
	op  Op
	fut *Future
}

// serveConn relays one connection: a reader loop submits requests, a
// writer loop resolves futures in request order and streams responses.
func serveConn(ctx context.Context, conn net.Conn, s *Server) {
	defer conn.Close()
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel() // sheds this connection's unflushed ops on exit

	// The queue bound only backpressures the reader against a slow
	// writer; admission control proper lives in Server.Submit.
	queue := make(chan inflight, 256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writeResponses(connCtx, conn, queue)
	}()

	br := bufio.NewReader(conn)
	var frame [reqFrameLen]byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			break // EOF or a torn frame: either way the conversation is over
		}
		id := binary.LittleEndian.Uint64(frame[0:8])
		op := Op(frame[8])
		key := binary.LittleEndian.Uint64(frame[9:17])
		timeoutUs := binary.LittleEndian.Uint32(frame[17:21])

		// One clock read stamps both the admit time and the deadline.
		now := time.Now()
		var deadline time.Time
		if timeoutUs > 0 {
			deadline = now.Add(time.Duration(timeoutUs) * time.Microsecond)
		}
		fut, err := s.submit(connCtx, now, deadline, op, key)
		if err != nil {
			fut = resolved(Result{Err: err})
		}
		in := inflight{id: id, op: op, fut: fut}
		select {
		case queue <- in: // the common case skips the two-way select below
		default:
			select {
			case queue <- in:
			case <-connCtx.Done():
			}
		}
		if connCtx.Err() != nil {
			break
		}
	}
	cancel()
	wg.Wait()
}

// writeResponses drains the in-flight queue in order, waiting each
// future and framing its result.
func writeResponses(ctx context.Context, conn net.Conn, queue <-chan inflight) {
	bw := bufio.NewWriter(conn)
	var payload []byte // Elements payload buffer, reused across responses
	for {
		var in inflight
		select {
		case in = <-queue: // the common case skips the two-way select below
		default:
			select {
			case in = <-queue:
			case <-ctx.Done():
				// Flush what's written, then drain without blocking forever:
				// remaining futures resolve during server drain or were shed.
				bw.Flush()
				return
			}
		}
		res, err := in.fut.Wait(ctx)
		if err != nil {
			bw.Flush()
			return
		}
		if payload, err = writeResponse(bw, payload, in, res); err != nil {
			return
		}
		// Flush when no response is immediately pending, so pipelined
		// bursts coalesce but a lone response is not held hostage.
		if len(queue) == 0 {
			if bw.Flush() != nil {
				return
			}
		}
	}
}

// writeResponse frames one resolved result onto the buffered writer.
// An Elements payload is encoded into payload (grown as needed and
// returned for reuse) and written in one call.
func writeResponse(bw *bufio.Writer, payload []byte, in inflight, res Result) ([]byte, error) {
	var hdr [respFrameLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], in.id)
	hdr[8] = statusOf(res, in.op)
	binary.LittleEndian.PutUint64(hdr[9:17], res.Value)
	var elems []uint64
	if in.op == OpElements && res.Err == nil {
		elems = res.Elems
	}
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(len(elems)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return payload, err
	}
	if len(elems) == 0 {
		return payload, nil
	}
	payload = payload[:0]
	for _, e := range elems {
		payload = binary.LittleEndian.AppendUint64(payload, e)
	}
	_, err := bw.Write(payload)
	return payload, err
}

// maxPendingWrite bounds the request bytes a Client queues for its
// writer goroutine: Do blocks while this much is pending, so a server
// that stops reading stalls the caller instead of growing the buffer.
const maxPendingWrite = 64 << 10

// Client is a pipelined client for a served epoch Server. Safe for
// concurrent use; responses are matched to calls by request id.
//
// Do only appends a frame to a pending buffer; one writer goroutine
// sends whatever has accumulated with a single conn.Write, so requests
// issued while a write is in progress share the next one.
type Client struct {
	conn net.Conn

	mu      sync.Mutex
	wake    *sync.Cond // writer: frames pending, or the transport is done
	room    *sync.Cond // blocked Do calls: the pending buffer was taken
	wbuf    []byte     // frames not yet handed to the writer
	nextID  uint64
	pending map[uint64]*ClientFuture
	err     error // sticky transport error
	closed  bool

	readerDone chan struct{}
	writerDone chan struct{}
}

// ClientFuture resolves to a remote operation's response.
type ClientFuture struct {
	status uint8
	value  uint64
	elems  []uint64
	err    error
	done   chan struct{}
}

// Done returns a channel closed when the response (or a transport
// failure) is available.
func (f *ClientFuture) Done() <-chan struct{} { return f.done }

// Result returns the remote result after Done is closed. Value and OK
// mirror the server-side Result; Err is the decoded remote error or
// the transport error that killed the connection.
func (f *ClientFuture) Result() Result {
	if f.err != nil {
		return Result{Err: f.err}
	}
	return Result{Value: f.value, OK: f.status == StatusOK, Elems: f.elems, Err: errOf(f.status)}
}

// Dial connects a Client to a phserver address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		pending:    make(map[uint64]*ClientFuture),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	c.wake = sync.NewCond(&c.mu)
	c.room = sync.NewCond(&c.mu)
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

// Do queues one operation with an optional per-request deadline
// (timeout <= 0 means none) and returns its future. Do does not write
// to the connection: it appends the request frame to the client's
// pending buffer, and the client's writer goroutine sends everything
// pending in one write, so concurrent and pipelined calls share one
// write system call. Do blocks
// only while maxPendingWrite bytes (64 KiB) already wait to be sent,
// which happens when the server stops reading. A transport failure
// therefore arrives asynchronously: the futures of requests it caught
// resolve with the error, and later calls to Do return it.
func (c *Client) Do(op Op, key uint64, timeout time.Duration) (*ClientFuture, error) {
	timeoutUs := int64(0)
	if timeout > 0 {
		timeoutUs = int64(timeout / time.Microsecond)
		if timeoutUs <= 0 {
			timeoutUs = 1
		}
		if timeoutUs > int64(^uint32(0)) {
			timeoutUs = int64(^uint32(0))
		}
	}
	f := &ClientFuture{done: make(chan struct{})}

	c.mu.Lock()
	for c.err == nil && !c.closed && len(c.wbuf) >= maxPendingWrite {
		c.room.Wait()
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = f
	if len(c.wbuf) == 0 {
		c.wake.Signal()
	}
	c.wbuf = binary.LittleEndian.AppendUint64(c.wbuf, id)
	c.wbuf = append(c.wbuf, byte(op))
	c.wbuf = binary.LittleEndian.AppendUint64(c.wbuf, key)
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, uint32(timeoutUs))
	c.mu.Unlock()
	return f, nil
}

// Call is Do + wait: one synchronous round trip.
func (c *Client) Call(op Op, key uint64, timeout time.Duration) (Result, error) {
	f, err := c.Do(op, key, timeout)
	if err != nil {
		return Result{}, err
	}
	<-f.Done()
	res := f.Result()
	return res, nil
}

// Close tears down the connection; outstanding futures resolve with
// the transport error, Do calls blocked on a full buffer return
// ErrClosed, and the reader and writer goroutines exit before Close
// returns. Requests still pending in the buffer are not sent.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.wake.Signal()
	c.room.Broadcast()
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	<-c.writerDone
	return err
}

// writeLoop is the client's writer goroutine: it takes the whole
// pending buffer and sends it with one conn.Write, until Close or a
// transport failure. Two buffers alternate, so Do appends to one while
// the other is on the wire.
func (c *Client) writeLoop() {
	defer close(c.writerDone)
	var spare []byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.wbuf) == 0 && c.err == nil && !c.closed {
			c.wake.Wait()
		}
		if c.err != nil || c.closed {
			return
		}
		out := c.wbuf
		c.wbuf = spare[:0]
		c.room.Broadcast()
		c.mu.Unlock()
		_, err := c.conn.Write(out)
		c.mu.Lock()
		if err != nil {
			c.fail(err)
			return
		}
		spare = out
	}
}

// fail marks the transport dead, resolves all pending futures with
// err, and wakes the writer and any Do blocked on a full buffer.
// Callers must hold c.mu.
func (c *Client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.wake.Signal()
	c.room.Broadcast()
	for id, f := range c.pending {
		f.err = c.err
		close(f.done)
		delete(c.pending, id)
	}
}

// readLoop decodes response frames and resolves pending futures.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn)
	var hdr [respFrameLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.mu.Lock()
			c.fail(err)
			c.mu.Unlock()
			return
		}
		id := binary.LittleEndian.Uint64(hdr[0:8])
		status := hdr[8]
		value := binary.LittleEndian.Uint64(hdr[9:17])
		nelems := binary.LittleEndian.Uint32(hdr[17:21])
		var elems []uint64
		if nelems > 0 {
			if nelems > maxWireElems {
				c.mu.Lock()
				c.fail(fmt.Errorf("epoch: response claims %d elements", nelems))
				c.mu.Unlock()
				return
			}
			raw := make([]byte, 8*int(nelems))
			if _, err := io.ReadFull(br, raw); err != nil {
				c.mu.Lock()
				c.fail(err)
				c.mu.Unlock()
				return
			}
			elems = make([]uint64, nelems)
			for i := range elems {
				elems[i] = binary.LittleEndian.Uint64(raw[8*i:])
			}
		}
		c.mu.Lock()
		f, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			f.status = status
			f.value = value
			f.elems = elems
			close(f.done)
		}
	}
}
