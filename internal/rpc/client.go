package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrPoolClosed is returned by ConnPool.Get after CloseAll.
var ErrPoolClosed = errors.New("rpc: connection pool closed")

// Conn is one persistent client connection to a shard server. A Conn
// serves one request at a time; the ConnPool multiplexes concurrent
// fan-out over many Conns per address.
type Conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// req accumulates the request payload between calls, so steady-state
	// requests reuse one buffer.
	req []byte
	// broken marks a conn whose transport failed mid-request; the pool
	// discards it instead of recycling.
	broken bool
}

// Dial connects to a shard server. dialTimeout bounds the TCP connect
// only; per-request deadlines are set per Do.
func Dial(addr string, dialTimeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &Conn{
		addr: addr,
		nc:   nc,
		br:   bufio.NewReader(nc),
		bw:   bufio.NewWriter(nc),
	}, nil
}

// Addr returns the dialed address.
func (c *Conn) Addr() string { return c.addr }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Broken reports a transport failure: replies still owed on this
// connection will not come, and the pool discards it.
func (c *Conn) Broken() bool { return c.broken }

// Do performs one request/response exchange: Queue, Flush, Receive. A
// shard-reported failure surfaces as *RemoteError (the conn stays
// healthy); any transport failure marks the conn broken and a deadline
// expiry maps onto context.DeadlineExceeded so callers classify timeouts
// uniformly.
func (c *Conn) Do(op Op, body []byte, deadline time.Time, traceID uint64) ([]byte, error) {
	if err := c.Queue(op, body, deadline, traceID); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return c.Receive()
}

// Queue frames [version][op][deadline-millis][trace-id][body] into the
// write buffer under deadline, sending nothing until Flush: several
// requests queued before one Flush travel together, and Receive returns
// their replies in order. traceID attributes the shard's work to the
// originating coordinator request; 0 means untraced.
func (c *Conn) Queue(op Op, body []byte, deadline time.Time, traceID uint64) error {
	var millis uint64
	if !deadline.IsZero() {
		left := time.Until(deadline)
		if left <= 0 {
			// A request queued ahead of this one will never be flushed.
			c.broken = c.broken || c.bw.Buffered() > 0
			return context.DeadlineExceeded
		}
		millis = max(uint64(left/time.Millisecond), 1)
	}
	if err := c.nc.SetDeadline(deadline); err != nil {
		c.broken = true
		return err
	}
	c.req = append(c.req[:0], Version, byte(op))
	c.req = AppendUvarint(c.req, millis)
	c.req = AppendUvarint(c.req, traceID)
	c.req = append(c.req, body...)
	if err := WriteFrame(c.bw, c.req); err != nil {
		c.broken = true
		return c.transportErr("write", err)
	}
	return nil
}

// Flush sends every queued request.
func (c *Conn) Flush() error {
	if err := c.bw.Flush(); err != nil {
		c.broken = true
		return c.transportErr("write", err)
	}
	return nil
}

// Receive reads the reply to the oldest unanswered request and splits it.
func (c *Conn) Receive() ([]byte, error) {
	payload, err := ReadFrame(c.br)
	if err != nil {
		c.broken = true
		return nil, c.transportErr("read", err)
	}
	return ParseResponse(payload)
}

// transportErr wraps a transport failure with the peer address, mapping
// an expired I/O deadline onto context.DeadlineExceeded.
func (c *Conn) transportErr(verb string, err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("rpc: %s %s: %w", verb, c.addr, context.DeadlineExceeded)
	}
	return fmt.Errorf("rpc: %s %s: %w", verb, c.addr, err)
}

// ConnPool keeps persistent connections per shard address: Get reuses an
// idle conn or dials, Put recycles a healthy one, and CloseAll closes
// every connection — including checked-out ones, which interrupts any
// blocked I/O so a coordinator Close never waits on a hung shard.
type ConnPool struct {
	dialTimeout time.Duration

	mu     sync.Mutex
	closed bool
	idle   map[string][]*Conn
	busy   map[*Conn]struct{}
}

// NewConnPool builds an empty pool.
func NewConnPool(dialTimeout time.Duration) *ConnPool {
	return &ConnPool{
		dialTimeout: dialTimeout,
		idle:        make(map[string][]*Conn),
		busy:        make(map[*Conn]struct{}),
	}
}

// Get checks out a connection to addr, reusing an idle one when
// available.
func (p *ConnPool) Get(addr string) (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if conns := p.idle[addr]; len(conns) > 0 {
		c := conns[len(conns)-1]
		p.idle[addr] = conns[:len(conns)-1]
		p.busy[c] = struct{}{}
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()

	c, err := Dial(addr, p.dialTimeout)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = c.Close()
		return nil, ErrPoolClosed
	}
	p.busy[c] = struct{}{}
	p.mu.Unlock()
	return c, nil
}

// Put returns a checked-out connection: healthy conns go back to the
// idle list, broken ones are closed.
func (p *ConnPool) Put(c *Conn) {
	p.mu.Lock()
	delete(p.busy, c)
	if p.closed || c.broken {
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	p.idle[c.addr] = append(p.idle[c.addr], c)
	p.mu.Unlock()
}

// CloseAll retires the pool: every idle and checked-out connection is
// closed (interrupting blocked I/O) and future Gets fail with
// ErrPoolClosed.
func (p *ConnPool) CloseAll() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, conns := range p.idle {
		for _, c := range conns {
			_ = c.Close()
		}
	}
	for c := range p.busy {
		_ = c.Close()
	}
	p.idle = make(map[string][]*Conn)
	p.busy = make(map[*Conn]struct{})
	p.mu.Unlock()
}
