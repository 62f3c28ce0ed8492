// Package client is the Go client for an S-Store server
// (cmd/sstore-server): a TCP connection speaking the internal/wire
// protocol, with request pipelining — many Calls and Ingests may be in
// flight concurrently on one connection, and each completes when its
// transaction commits server-side.
//
// Backpressure is first-class: when the server rejects a request under
// queue-depth bounds, the returned error matches sstore.ErrOverloaded
// and carries the server's retry-after hint (sstore.RetryAfter). The
// rejected request left no server-side trace, so retrying the
// identical request — same batch ID included — is legal, provided the
// retry happens before later batch IDs are admitted on the same
// stream and partition (the server's exactly-once ledger is a
// high-water mark): resolve each batch before pipelining past it when
// the server may push back. IngestRetry packages that loop.
package client

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"sstore"
	"sstore/internal/wire"
)

// Result is a Call's or Query's client-visible outcome.
type Result = sstore.Result

// Stats is the server engine's counter snapshot.
type Stats = wire.Stats

// Client is one pipelined connection to a server. Methods are safe for
// concurrent use; responses are matched to requests by ID, so
// concurrent in-flight requests complete independently.
type Client struct {
	conn net.Conn

	// wmu serializes request writes; each request is framed and
	// flushed as one unit.
	wmu sync.Mutex
	bw  *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *wire.Response
	err     error // sticky transport failure, fails all later requests
}

// Dial connects to a server at addr ("host:port") and completes the
// protocol handshake: both sides lead with magic + version bytes, and
// a peer that is not an sstore server of the same protocol version is
// rejected here with a precise error instead of failing obscurely on
// the first frame.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	//lint:allow errdrop -- deadline errors surface on the guarded handshake I/O
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := conn.Write(wire.AppendHello(nil)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	if err := wire.ReadHello(br); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: %w", err)
	}
	//lint:allow errdrop -- clearing a deadline on a live conn cannot fail meaningfully
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		pending: make(map[uint64]chan *wire.Response),
	}
	// The handshake reader carries over: it may already have buffered
	// frame bytes past the hello.
	go c.readLoop(br)
	return c, nil
}

// Close tears down the connection; in-flight requests fail.
func (c *Client) Close() error {
	c.fail(fmt.Errorf("client: closed"))
	return c.conn.Close()
}

// readLoop delivers responses to their waiting requests until the
// connection dies, then fails everything still pending.
func (c *Client) readLoop(br *bufio.Reader) {
	// One grow-only frame buffer for the connection's lifetime:
	// DecodeResponse copies everything it keeps, so each frame may
	// overwrite the last.
	var scratch []byte
	for {
		payload, err := wire.ReadFrameBuf(br, scratch)
		scratch = payload
		if err != nil {
			c.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			c.fail(fmt.Errorf("client: %w", err))
			c.conn.Close()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// Broken reports whether the connection has died (sticky transport
// failure): every further request on this client fails, and the caller
// should redial. Request-level errors (abort, overload, routing) do
// not break a client.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// fail marks the client broken and releases every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan *wire.Response)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// send registers a pending slot and writes the framed request. The
// returned channel receives the response, or closes on transport
// failure.
func (c *Client) send(req *wire.Request) (chan *wire.Response, error) {
	ch := make(chan *wire.Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()

	frame := wire.AppendRequest(nil, req)
	if len(frame)-4 > wire.MaxFrame {
		// An oversize request (e.g. a huge batch) fails locally rather
		// than desynchronizing the server's frame reader.
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("client: request of %d bytes exceeds frame limit %d", len(frame)-4, wire.MaxFrame)
	}
	c.wmu.Lock()
	_, err := c.bw.Write(frame)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		err = fmt.Errorf("client: send: %w", err)
		c.fail(err)
		return nil, err
	}
	return ch, nil
}

// decodeErr converts a non-OK response into the matching Go error; an
// overloaded status becomes an sstore.OverloadedError so errors.Is
// against sstore.ErrOverloaded and sstore.RetryAfter work unchanged
// across the wire.
func decodeErr(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOverloaded:
		return &sstore.OverloadedError{
			Partition:  resp.Partition,
			Depth:      resp.Depth,
			RetryAfter: time.Duration(resp.RetryAfterMicros) * time.Microsecond,
		}
	case wire.StatusErr:
		return fmt.Errorf("server: %s", resp.Msg)
	default:
		return nil
	}
}

// await turns a response channel into (response, error), mapping a
// closed channel to the sticky transport error.
func (c *Client) await(ch chan *wire.Response) (*wire.Response, error) {
	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("client: connection lost")
		}
		return nil, err
	}
	if err := decodeErr(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Call invokes a stored procedure as an OLTP transaction and waits for
// its result.
func (c *Client) Call(sp string, params ...sstore.Value) (*Result, error) {
	ch, err := c.send(&wire.Request{Op: wire.OpCall, SP: sp, Params: sstore.Row(params)})
	if err != nil {
		return nil, err
	}
	resp, err := c.await(ch)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns:         resp.Columns,
		Rows:            resp.Rows,
		LastInsertBatch: resp.LastInsertBatch,
	}, nil
}

// Query runs a read-only SQL statement against a consistent snapshot
// of one partition. Queries are served off the partition loop (the
// snapshot read path): they never occupy a scheduler slot, are never
// rejected by queue-depth backpressure, and observe a single commit
// boundary — committed state only, never a half-executed transaction.
func (c *Client) Query(partition int, stmt string, params ...sstore.Value) (*Result, error) {
	ch, err := c.send(&wire.Request{
		Op: wire.OpQuery, Partition: partition, SQL: stmt, Params: sstore.Row(params),
	})
	if err != nil {
		return nil, err
	}
	resp, err := c.await(ch)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: resp.Columns, Rows: resp.Rows}, nil
}

// Ingest pushes an atomic batch into a border stream and waits for the
// border transaction to commit (exactly-once: duplicate batch IDs are
// rejected server-side).
func (c *Client) Ingest(streamName string, b *sstore.Batch) error {
	ch, err := c.IngestAsync(streamName, b)
	if err != nil {
		return err
	}
	return <-ch
}

// IngestAsync submits the batch and returns a channel receiving the
// border transaction's commit outcome, enabling many in-flight batches
// per connection. The request is written before IngestAsync returns,
// so a single caller's batches are admitted in submission order.
// Submission-time rejections (duplicate, overload) arrive on the
// channel like commit outcomes.
func (c *Client) IngestAsync(streamName string, b *sstore.Batch) (<-chan error, error) {
	ch, err := c.send(&wire.Request{
		Op: wire.OpIngest, Stream: streamName, BatchID: b.ID, Rows: b.Rows,
	})
	if err != nil {
		return nil, err
	}
	out := make(chan error, 1)
	go func() {
		_, err := c.await(ch)
		out <- err
	}()
	return out, nil
}

// RetryOptions bounds an overload-retry loop. The zero value retries
// forever (with jitter), preserving IngestRetry's historical contract.
type RetryOptions struct {
	// MaxAttempts caps the total number of Ingest attempts (initial
	// attempt included); 0 means unlimited. When the budget is
	// exhausted the last overload error is returned (it still matches
	// sstore.ErrOverloaded).
	MaxAttempts int
	// Deadline, when non-zero, stops retrying once the next backoff
	// would end past it; the last overload error is returned.
	Deadline time.Time
}

// IngestRetry ingests a batch, retrying after the server's hinted
// backoff for as long as the server reports overload — the retryable
// ingestion loop a production client runs under backpressure. Other
// errors (duplicate, abort, transport) return immediately.
//
// Each backoff applies ±50% jitter to the server's hint: every
// rejected client sleeping exactly the hint would wake the whole
// cohort simultaneously and re-stampede the border the moment it
// drained. Use IngestRetryOpts to bound the attempts or set a
// deadline.
func (c *Client) IngestRetry(streamName string, b *sstore.Batch) error {
	return c.IngestRetryOpts(streamName, b, RetryOptions{})
}

// IngestRetryOpts is IngestRetry with a bounded retry budget.
func (c *Client) IngestRetryOpts(streamName string, b *sstore.Batch, opts RetryOptions) error {
	attempts := 0
	for {
		err := c.Ingest(streamName, b)
		if err == nil {
			return nil
		}
		hint := sstore.RetryAfter(err)
		if hint <= 0 {
			return err
		}
		attempts++
		if opts.MaxAttempts > 0 && attempts >= opts.MaxAttempts {
			return fmt.Errorf("client: retry budget exhausted after %d attempts: %w", attempts, err)
		}
		wait := jitterWait(hint)
		if !opts.Deadline.IsZero() && time.Now().Add(wait).After(opts.Deadline) {
			return fmt.Errorf("client: retry deadline exceeded after %d attempts: %w", attempts, err)
		}
		time.Sleep(wait)
	}
}

// jitterWait spreads a retry hint uniformly over [hint/2, hint*3/2) so
// a cohort of rejected clients does not thunder back in lockstep.
func jitterWait(hint time.Duration) time.Duration {
	if hint <= 0 {
		return 0
	}
	return hint/2 + time.Duration(rand.Int64N(int64(hint)))
}

// Stats fetches the server engine's counters.
func (c *Client) Stats() (Stats, error) {
	ch, err := c.send(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return Stats{}, err
	}
	resp, err := c.await(ch)
	if err != nil {
		return Stats{}, err
	}
	return resp.Stats, nil
}

// Drain blocks until the server engine is quiescent — all queued work,
// including trigger cascades, finished. Intended for tests and
// controlled benchmarks; under continuous ingestion from other clients
// it may block indefinitely.
func (c *Client) Drain() error {
	ch, err := c.send(&wire.Request{Op: wire.OpDrain})
	if err != nil {
		return err
	}
	_, err = c.await(ch)
	return err
}
