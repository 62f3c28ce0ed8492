// Package server is the engine's network front door: a TCP server
// speaking the internal/wire protocol, turning a single-process
// partition engine into a client/server system (the deployment shape
// the paper assumes — clients and stream injection feed the engine
// over a network, Figure 4).
//
// Each connection gets a reader goroutine and a writer goroutine.
// The reader decodes requests and submits them to the engine through
// the asynchronous entry points (CallAsync, IngestAsync), so requests
// pipeline: the exactly-once batch admission happens synchronously in
// the order requests arrive on the connection, while commit
// acknowledgements flow back whenever their transaction finishes —
// out of order when partitions differ. Backpressure rejections
// (pe.ErrOverloaded) are relayed with their retry-after hint instead
// of being treated as failures, so clients can retry identically.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sstore/internal/pe"
	"sstore/internal/stream"
	"sstore/internal/wire"
)

// helloTimeout bounds the protocol handshake: a connection that has
// not completed the magic/version exchange within it is dropped, so a
// misdirected or silent client cannot pin an accept goroutine.
const helloTimeout = 5 * time.Second

// Server serves one engine over TCP. Create with New, start with
// Serve, stop with Close; the engine's lifecycle stays the caller's.
type Server struct {
	eng *pe.Engine

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New wraps an engine; the engine must be fully set up (DDL, stored
// procedures, workflows) before Serve admits traffic.
func New(eng *pe.Engine) *Server {
	return &Server{eng: eng, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close; it blocks. The
// listener is owned by the server from here on.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// ListenAndServe listens on addr and serves; it blocks like Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listen address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every connection, and waits for the
// per-connection goroutines to finish. It does not close the engine.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// handle runs one connection: a read loop that submits requests and a
// writer goroutine that serializes responses. Response frames travel
// through out; every in-flight request holds a slot in inflight, and
// out is closed only after the read loop ended and all in-flight
// requests delivered their response — so a send on out never races a
// close.
func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(c)

	// Handshake before any frame: both sides lead with magic + version
	// (wire.AppendHello) and validate the peer's greeting. A mismatched
	// peer is simply hung up on — its own ReadHello reports the precise
	// mismatch, and nothing this server could frame would be
	// intelligible to a peer speaking another protocol or version.
	//lint:allow errdrop -- deadline errors surface on the guarded I/O below
	c.SetDeadline(time.Now().Add(helloTimeout))
	if _, err := c.Write(wire.AppendHello(nil)); err != nil {
		return
	}
	br := bufio.NewReader(c)
	if err := wire.ReadHello(br); err != nil {
		return
	}
	//lint:allow errdrop -- clearing a deadline on a live conn cannot fail meaningfully
	c.SetDeadline(time.Time{})

	out := make(chan []byte, 128)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(c)
		for frame := range out {
			if _, err := bw.Write(frame); err != nil {
				// Connection is gone; keep draining so in-flight
				// responders never block on a dead writer.
				for range out {
				}
				return
			}
			// Flush when no further response is immediately ready:
			// consecutive ready responses coalesce into one write.
			if len(out) == 0 {
				if err := bw.Flush(); err != nil {
					for range out {
					}
					return
				}
			}
		}
		bw.Flush()
	}()

	var inflight sync.WaitGroup
	// One grow-only frame buffer per connection: DecodeRequest copies
	// everything it keeps, so each frame may overwrite the last.
	var scratch []byte
	for {
		payload, err := wire.ReadFrameBuf(br, scratch)
		scratch = payload
		if err != nil {
			break
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// Protocol error: the stream cannot be resynchronized;
			// report and hang up.
			out <- wire.AppendResponse(nil, &wire.Response{
				Status: wire.StatusErr, Msg: err.Error(),
			})
			break
		}
		s.dispatch(req, out, &inflight)
	}
	inflight.Wait()
	close(out)
	<-writerDone
}

// dispatch submits one request to the engine. Submission itself is
// synchronous — admission order on a connection is request order —
// while waiting for the outcome moves to a goroutine per in-flight
// request.
func (s *Server) dispatch(req *wire.Request, out chan<- []byte, inflight *sync.WaitGroup) {
	switch req.Op {
	case wire.OpCall:
		ch := s.eng.CallAsync(req.SP, req.Params)
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			r := <-ch
			if r.Err != nil {
				out <- s.respondErr(req, r.Err)
				return
			}
			resp := &wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
			if r.Res != nil {
				resp.Columns = r.Res.Columns
				resp.Rows = r.Res.Rows
				resp.LastInsertBatch = r.Res.LastInsertBatch
			}
			frame := wire.AppendResponse(nil, resp)
			if len(frame)-4 > wire.MaxFrame {
				// A result too large to frame fails its own request;
				// sending it would make the client's frame reader kill
				// the whole pipelined connection.
				frame = errFrame(req, fmt.Errorf(
					"server: result of %d bytes exceeds frame limit %d", len(frame)-4, wire.MaxFrame))
			}
			out <- frame
		}()
	case wire.OpIngest:
		ch, err := s.eng.IngestAsync(req.Stream, &stream.Batch{ID: req.BatchID, Rows: req.Rows})
		if err != nil {
			// A WrongNodeError arrives synchronously (the routing check
			// runs before admission); forwarding it is a network round
			// trip, so it moves off the read loop like any outcome wait.
			var wne *pe.WrongNodeError
			if errors.As(err, &wne) && s.eng.Peers() != nil {
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					out <- s.forwardFrame(req, wne)
				}()
				return
			}
			out <- errFrame(req, err)
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if err := <-ch; err != nil {
				out <- errFrame(req, err)
				return
			}
			out <- wire.AppendResponse(nil, &wire.Response{
				ID: req.ID, Op: req.Op, Status: wire.StatusOK, BatchID: req.BatchID,
			})
		}()
	case wire.OpHandoff:
		// Inter-node hand-off of a relocated interior batch: admission
		// (dedup + enqueue) is synchronous like OpIngest, so a peer's
		// hand-offs for one stream are admitted in arrival order — the
		// invariant the high-water ledger depends on. The OK response is
		// the sender's signal to drop its retained copy, so it is held
		// back until every consumer transaction committed.
		dup, ack, err := s.eng.DeliverHandoff(req.From, req.Partition, req.Stream, req.BatchID, req.Rows, req.Front)
		if err != nil {
			out <- errFrame(req, err)
			return
		}
		if dup {
			out <- wire.AppendResponse(nil, &wire.Response{
				ID: req.ID, Op: req.Op, Status: wire.StatusOK, BatchID: req.BatchID, Duplicate: true,
			})
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if err := <-ack; err != nil {
				out <- errFrame(req, err)
				return
			}
			out <- wire.AppendResponse(nil, &wire.Response{
				ID: req.ID, Op: req.Op, Status: wire.StatusOK, BatchID: req.BatchID,
			})
		}()
	case wire.OpHandoffPull:
		// A restarted peer asks for every unacknowledged hand-off
		// destined to it to be sent again; its ledger suppresses the
		// ones that actually committed before the crash.
		if ps := s.eng.Peers(); ps != nil {
			ps.Redeliver(req.Node)
		}
		out <- wire.AppendResponse(nil, &wire.Response{
			ID: req.ID, Op: req.Op, Status: wire.StatusOK,
		})
	case wire.OpQuery:
		// The snapshot read path: the query pins a consistent view off
		// the partition loop, so it is dispatched straight from a
		// goroutine — it never occupies a scheduler slot and cannot be
		// rejected by queue-depth backpressure.
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			res, err := s.eng.Read(req.Partition, req.SQL, req.Params...)
			if err != nil {
				out <- s.respondErr(req, err)
				return
			}
			resp := &wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
			if res != nil {
				resp.Columns = res.Columns
				resp.Rows = res.Rows
			}
			frame := wire.AppendResponse(nil, resp)
			if len(frame)-4 > wire.MaxFrame {
				frame = errFrame(req, fmt.Errorf(
					"server: result of %d bytes exceeds frame limit %d", len(frame)-4, wire.MaxFrame))
			}
			out <- frame
		}()
	case wire.OpStats:
		out <- wire.AppendResponse(nil, &wire.Response{
			ID: req.ID, Op: req.Op, Status: wire.StatusOK,
			Stats: s.eng.Stats(),
		})
	case wire.OpDrain:
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			err := s.eng.Drain()
			if err != nil {
				out <- errFrame(req, err)
				return
			}
			out <- wire.AppendResponse(nil, &wire.Response{
				ID: req.ID, Op: req.Op, Status: wire.StatusOK,
			})
		}()
	default:
		out <- errFrame(req, fmt.Errorf("server: unknown op %d", req.Op))
	}
}

// respondErr encodes a request outcome error, first trying transparent
// forwarding when the error says the partition lives on a peer node: a
// client may send any request to any node of the cluster and the
// owning node serves it, one extra hop later. Callers run on in-flight
// goroutines, so the forwarding round trip blocks no read loop. Only
// called where req is safe to replay on the peer (Call, Query, and
// pre-admission Ingest rejections — never after side effects).
func (s *Server) respondErr(req *wire.Request, err error) []byte {
	var wne *pe.WrongNodeError
	if errors.As(err, &wne) && s.eng.Peers() != nil {
		return s.forwardFrame(req, wne)
	}
	return errFrame(req, err)
}

// forwardFrame re-issues req against the owning node over the peer
// connection set and re-frames the answer under the original request
// ID. Forwarding failures surface as plain errors carrying the peer's
// identity, so a client can tell a routing problem from a local one.
func (s *Server) forwardFrame(req *wire.Request, wne *pe.WrongNodeError) []byte {
	resp, err := s.eng.Peers().Forward(wne.Node, req)
	if err != nil {
		return errFrame(req, fmt.Errorf("server: forwarding to node %d (%s): %w", wne.Node, wne.Addr, err))
	}
	resp.ID = req.ID
	return wire.AppendResponse(nil, resp)
}

// errFrame encodes an error outcome, mapping a backpressure rejection
// to the overloaded status so the client sees the retry-after hint
// rather than an opaque failure.
func errFrame(req *wire.Request, err error) []byte {
	var oe *pe.OverloadedError
	if errors.As(err, &oe) {
		return wire.AppendResponse(nil, &wire.Response{
			ID: req.ID, Op: req.Op, Status: wire.StatusOverloaded,
			Partition:        oe.Partition,
			Depth:            oe.Depth,
			RetryAfterMicros: uint64(oe.RetryAfter.Microseconds()),
		})
	}
	return wire.AppendResponse(nil, &wire.Response{
		ID: req.ID, Op: req.Op, Status: wire.StatusErr, Msg: err.Error(),
	})
}
