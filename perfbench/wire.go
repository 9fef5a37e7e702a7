package main

import (
	"net"
	"sync/atomic"
)

// wireStats counts the server side's calls on the connections of a
// wrapped listener while the tracer is recording.
type wireStats struct {
	reads, writes, writeBytes atomic.Int64
}

// wireListener hands epoch.Serve connections whose Read and Write the
// benchmark counts and times; it changes nothing else.
type wireListener struct {
	net.Listener
	st *wireStats
	tr *tracer
}

func (l *wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, st: l.st, tr: l.tr}, nil
}

type wireConn struct {
	net.Conn
	st *wireStats
	tr *tracer
}

// Read and Write are counted whenever the tracer is recording, whether
// or not the span buffer still has room for their spans.
func (c *wireConn) Read(p []byte) (int, error) {
	if !c.tr.on.Load() {
		return c.Conn.Read(p)
	}
	h := c.tr.open(spWireRead, 0, 0)
	n, err := c.Conn.Read(p)
	c.tr.close(h)
	c.st.reads.Add(1)
	return n, err
}

func (c *wireConn) Write(p []byte) (int, error) {
	if !c.tr.on.Load() {
		return c.Conn.Write(p)
	}
	h := c.tr.open(spWireWrite, 0, 0)
	n, err := c.Conn.Write(p)
	c.tr.close(h)
	c.st.writes.Add(1)
	c.st.writeBytes.Add(int64(n))
	return n, err
}
