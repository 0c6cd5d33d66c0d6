package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spectra/internal/obs"
	"spectra/internal/wire"
)

// Handler executes one service request on a Spectra server. It returns the
// response payload and a report of the resources consumed, which the server
// attaches to the RPC response (paper §3.3.5).
type Handler func(optype string, payload []byte) ([]byte, *wire.UsageReport, error)

// CtxHandler is a Handler that additionally observes per-stream
// cancellation: ctx is cancelled when the client abandons the request (a
// wire.MsgCancel frame for this stream) or its connection drops, so a
// long-running service can stop burning resources for a reply nobody
// will read. Handlers registered through Register ignore ctx; use
// RegisterContext for cancellation-aware services.
type CtxHandler func(ctx context.Context, optype string, payload []byte) ([]byte, *wire.UsageReport, error)

// StatusFunc produces the server's current resource snapshot.
type StatusFunc func() *wire.ServerStatus

// ServerLimits bounds concurrent request execution. A single multiplexed
// connection can push many requests at once; the worker bound keeps the
// server's measured compute honest (unbounded concurrency would thrash the
// very CPU signal the client's predictors rely on), and the queue bound
// sheds overload as classified wire.CodeOverloaded rejections instead of
// letting latency pile up invisibly.
type ServerLimits struct {
	// MaxConcurrent caps requests executing simultaneously; 0 disables
	// admission control entirely (every request executes immediately).
	MaxConcurrent int
	// MaxQueue caps requests waiting for a worker slot beyond
	// MaxConcurrent; once exceeded, requests are shed. 0 means no waiting:
	// any request arriving with all workers busy is shed immediately.
	MaxQueue int
}

// Server accepts Spectra RPC connections and dispatches requests to
// registered service handlers. Connections are multiplexed: a read loop
// per connection decodes frames and dispatches each request to its own
// goroutine (bounded by the admission-control worker pool), replies are
// written back through a per-connection serialized writer as handlers
// complete — out of order when executions overlap — and a MsgCancel
// frame cancels the named in-flight stream. Close stops the listener and
// waits for read loops and dispatched handlers to drain.
type Server struct {
	mu       sync.Mutex
	services map[string]CtxHandler
	status   StatusFunc

	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool

	// Admission control (see SetLimits). workers is a counting semaphore
	// of execution slots; queued tracks requests blocked waiting for one.
	// shedExpired enables deadline-aware admission: requests whose
	// propagated budget has already run out are answered
	// wire.CodeDeadlineExceeded without executing.
	limits      ServerLimits
	workers     chan struct{}
	queued      atomic.Int64
	shedExpired bool

	// Observability (see SetObserver). obsName labels server-side spans;
	// sink receives one thin DecisionTrace per handled request; the metric
	// handles are nil-safe no-ops when unset.
	obsName      string
	sink         obs.TraceSink
	mRequests    *obs.Counter
	mErrors      *obs.Counter
	mExecSeconds *obs.Histogram
	mRejected    *obs.Counter
	gQueueDepth  *obs.Gauge
	mQueueWait   *obs.Histogram
	mDeadline    *obs.Counter
}

// NewServer returns a server with no services registered. Deadline-aware
// shedding is on by default; see SetShedExpired.
func NewServer(status StatusFunc) *Server {
	return &Server{
		services:    make(map[string]CtxHandler),
		status:      status,
		conns:       make(map[net.Conn]struct{}),
		shedExpired: true,
	}
}

// SetShedExpired toggles deadline-aware admission. When on (the default),
// a request carrying a wire.DeadlineContext whose budget has expired — on
// arrival, while queued for a worker slot, or by the time a slot is
// finally granted — is shed with wire.CodeDeadlineExceeded instead of
// executed: the client has already abandoned the reply, so running the
// work would burn a worker slot for nobody. Requests without a deadline
// are unaffected.
func (s *Server) SetShedExpired(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shedExpired = on
}

// SetObserver enables server-side observability: requests are counted and
// timed in the observer's registry, and each handled request is emitted to
// the observer's trace sink as a thin DecisionTrace (OpID = the caller's
// trace ID when one was propagated, Operation = "service/optype") carrying
// the queue/exec/respond spans — the server's own flight-recorder view of
// the work clients sent it. name labels the spans' Origin. A nil observer
// detaches.
func (s *Server) SetObserver(name string, o *obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o == nil {
		s.obsName, s.sink, s.mRequests, s.mErrors, s.mExecSeconds = "", nil, nil, nil, nil
		s.mRejected, s.gQueueDepth, s.mQueueWait, s.mDeadline = nil, nil, nil, nil
		return
	}
	s.obsName = name
	s.sink = o.Sink
	if o.Registry != nil {
		s.mRequests = o.Registry.Counter(obs.MServerRequests)
		s.mErrors = o.Registry.Counter(obs.MServerErrors)
		s.mExecSeconds = o.Registry.Histogram(obs.MServerExecSeconds, obs.DefaultLatencyBuckets)
		s.mRejected = o.Registry.Counter(obs.MServerQueueRejected)
		s.gQueueDepth = o.Registry.Gauge(obs.MServerQueueDepth)
		s.mQueueWait = o.Registry.Histogram(obs.MServerQueueWaitSeconds, obs.DefaultLatencyBuckets)
		s.mDeadline = o.Registry.Counter(obs.MServerDeadlineShed)
	}
}

// SetLimits installs admission control: at most MaxConcurrent requests
// execute at once, at most MaxQueue more wait for a slot, and anything
// beyond that is shed with a wire.CodeOverloaded response. Ping and Status
// exchanges bypass admission — health checks and resource polling must keep
// working on an overloaded server. Set limits before Listen; changing them
// while requests are in flight miscounts slots held on the old semaphore.
// A zero MaxConcurrent disables admission control.
func (s *Server) SetLimits(l ServerLimits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limits = l
	if l.MaxConcurrent > 0 {
		s.workers = make(chan struct{}, l.MaxConcurrent)
	} else {
		s.workers = nil
	}
}

// Limits returns the installed admission-control bounds.
func (s *Server) Limits() ServerLimits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limits
}

// Register adds a service that ignores cancellation. Registering an
// existing name replaces it.
func (s *Server) Register(service string, h Handler) {
	s.RegisterContext(service, func(_ context.Context, optype string, payload []byte) ([]byte, *wire.UsageReport, error) {
		return h(optype, payload)
	})
}

// RegisterContext adds a cancellation-aware service: the handler's ctx is
// cancelled when the client abandons the stream or the connection drops.
// Registering an existing name replaces it.
func (s *Server) RegisterContext(service string, h CtxHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.services[service] = h
}

// Services returns the registered service names.
func (s *Server) Services() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.services))
	for name := range s.services {
		out = append(out, name)
	}
	return out
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts
// accepting connections in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", &TransportError{Op: "listen", Addr: addr, Err: err}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrServerClosed
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, closes open connections, and waits for all
// serving goroutines — read loops and dispatched handlers — to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connState is the server side of one multiplexed connection: a
// serialized writer (handlers finish concurrently, frames must not
// interleave) and the registry of in-flight streams a MsgCancel frame
// can target.
type connState struct {
	conn net.Conn

	wmu sync.Mutex // serializes reply frames from concurrent handlers

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
}

// write frames one reply, serialized against concurrent handlers. A reply
// that cannot be framed (wire.ErrMessageTooLarge) is answered with an
// error reply on the same stream, so its caller fails promptly instead of
// waiting out its deadline; the returned error is then a transport fault,
// which means the connection is dead.
func (cs *connState) write(m *wire.Message) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	_, err := wire.WriteMessage(cs.conn, m)
	if errors.Is(err, wire.ErrMessageTooLarge) {
		_, err = wire.WriteMessage(cs.conn, &wire.Message{
			Type:    m.Type,
			ID:      m.ID,
			Service: m.Service,
			Err:     fmt.Sprintf("reply not sent: %v (%d-byte payload)", err, len(m.Payload)),
		})
	}
	return err
}

// track registers a stream's cancel function, refusing duplicates: an ID
// already in flight on this connection is a protocol violation.
func (cs *connState) track(id uint64, cancel context.CancelFunc) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, dup := cs.inflight[id]; dup {
		return false
	}
	cs.inflight[id] = cancel
	return true
}

// untrack forgets a completed stream.
func (cs *connState) untrack(id uint64) {
	cs.mu.Lock()
	delete(cs.inflight, id)
	cs.mu.Unlock()
}

// cancel fires the named stream's cancel function, if it is still in
// flight. Cancels for unknown IDs — already answered, never seen — are
// ignored; the frame is advisory.
func (cs *connState) cancel(id uint64) {
	cs.mu.Lock()
	fn := cs.inflight[id]
	cs.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// cancelAll fires every in-flight stream's cancel function; the
// connection is gone, so no reply can reach any of them.
func (cs *connState) cancelAll() {
	cs.mu.Lock()
	fns := make([]context.CancelFunc, 0, len(cs.inflight))
	for _, fn := range cs.inflight {
		fns = append(fns, fn)
	}
	cs.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// serveConn is one connection's read loop. It never blocks on request
// execution: each decoded request is dispatched to its own goroutine
// (admission control bounds how many actually execute) so a slow handler
// cannot head-of-line-block the frames behind it, and replies are
// written back through the serialized writer as handlers complete.
// MsgCancel frames cancel the named stream; a dropped connection cancels
// every stream it carried.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	cs := &connState{conn: conn, inflight: make(map[uint64]context.CancelFunc)}
	defer func() {
		cs.cancelAll()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// Buffered so a small frame costs one read syscall, not one for the
	// length prefix and one for the body.
	r := bufio.NewReader(conn)
	for {
		msg, _, err := wire.ReadMessage(r)
		if err != nil {
			return
		}
		recv := time.Now()
		switch msg.Type {
		case wire.MsgCancel:
			cs.cancel(msg.ID)
		case wire.MsgRequest:
			ctx, cancel := context.WithCancel(context.Background())
			if !cs.track(msg.ID, cancel) {
				cancel()
				reply := &wire.Message{
					Type: wire.MsgResponse,
					ID:   msg.ID,
					Err:  fmt.Sprintf("duplicate in-flight stream id %d", msg.ID),
				}
				if err := cs.write(reply); err != nil {
					return
				}
				continue
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer cs.untrack(msg.ID)
				defer cancel()
				reply := s.handleRequest(ctx, msg, recv)
				if reply == nil {
					// Cancelled: the stream's client is gone; there is
					// nobody to write to.
					return
				}
				// A transport write fault is connection death: close, so
				// the read loop tears down and cancels the other streams.
				if err := cs.write(reply); err != nil {
					conn.Close()
				}
			}()
		default:
			// Ping, Status, and protocol errors are answered inline:
			// they are cheap, bypass admission control (health checks
			// must keep working on an overloaded server), and carry no
			// cancellable work.
			reply := s.handle(msg, recv)
			if reply == nil {
				continue
			}
			if err := cs.write(reply); err != nil {
				return
			}
		}
	}
}

func (s *Server) handle(msg *wire.Message, recv time.Time) *wire.Message {
	switch msg.Type {
	case wire.MsgPing:
		return &wire.Message{Type: wire.MsgPong, ID: msg.ID}
	case wire.MsgStatus:
		reply := &wire.Message{Type: wire.MsgStatusReply, ID: msg.ID}
		if s.status != nil {
			st := s.status()
			if st != nil {
				st.Services = s.Services()
			}
			reply.Status = st
		}
		return reply
	default:
		return &wire.Message{
			Type: wire.MsgResponse,
			ID:   msg.ID,
			Err:  fmt.Sprintf("unexpected message type %v", msg.Type),
		}
	}
}

// handleRequest executes one dispatched request: deadline-aware
// admission, the bounded worker pool, the handler itself, and span
// accounting. A nil return means the stream was cancelled — the client
// abandoned it, so no reply is written.
func (s *Server) handleRequest(ctx context.Context, msg *wire.Message, recv time.Time) *wire.Message {
	s.mu.Lock()
	h, ok := s.services[msg.Service]
	name, sink := s.obsName, s.sink
	reqs, errsC, execH := s.mRequests, s.mErrors, s.mExecSeconds
	limits, workers := s.limits, s.workers
	rejected, queueDepth, queueWait := s.mRejected, s.gQueueDepth, s.mQueueWait
	shedExpired, deadlineShed := s.shedExpired, s.mDeadline
	s.mu.Unlock()

	reply := &wire.Message{Type: wire.MsgResponse, ID: msg.ID, Service: msg.Service}
	if !ok {
		reply.Err = fmt.Sprintf("unknown service %q", msg.Service)
		errsC.Inc()
		return reply
	}
	if ctx.Err() != nil {
		return nil
	}

	// Deadline-aware admission: a propagated budget is measured from recv
	// on the server's own clock (the wire format is relative, so no clock
	// synchronization is assumed). expiry stays zero when the request
	// carries no deadline or shedding is disabled.
	var expiry time.Time
	if shedExpired && msg.Deadline != nil {
		expiry = recv.Add(msg.Deadline.Budget())
		if !time.Now().Before(expiry) {
			deadlineShed.Inc()
			reply.Code = wire.CodeDeadlineExceeded
			reply.Err = "deadline expired before execution"
			return reply
		}
	}

	// Admission control: acquire a worker slot or shed. The wait (if any)
	// lands inside the queue span, since dispatch is stamped after it, and
	// is bounded by the request's remaining budget and its cancellation:
	// work that would only start after its client gave up is shed at
	// dequeue instead of run.
	if workers != nil {
		select {
		case workers <- struct{}{}:
		default:
			q := s.queued.Add(1)
			if int(q) > limits.MaxQueue {
				s.queued.Add(-1)
				rejected.Inc()
				reply.Code = wire.CodeOverloaded
				reply.Err = fmt.Sprintf(
					"overloaded: %d executing, %d queued", limits.MaxConcurrent, limits.MaxQueue)
				return reply
			}
			queueDepth.Set(float64(q))
			waitStart := time.Now()
			if expiry.IsZero() {
				select {
				case workers <- struct{}{}:
				case <-ctx.Done():
					queueDepth.Set(float64(s.queued.Add(-1)))
					return nil
				}
			} else {
				timer := time.NewTimer(time.Until(expiry))
				select {
				case workers <- struct{}{}:
					timer.Stop()
				case <-ctx.Done():
					timer.Stop()
					queueDepth.Set(float64(s.queued.Add(-1)))
					return nil
				case <-timer.C:
					queueDepth.Set(float64(s.queued.Add(-1)))
					deadlineShed.Inc()
					reply.Code = wire.CodeDeadlineExceeded
					reply.Err = "deadline expired while queued"
					return reply
				}
			}
			queueDepth.Set(float64(s.queued.Add(-1)))
			queueWait.Observe(time.Since(waitStart).Seconds())
		}
		defer func() { <-workers }()

		// Re-check after winning a slot: the semaphore send can race the
		// timer, and on an overloaded server the grant itself may arrive
		// after the budget ran out.
		if !expiry.IsZero() && !time.Now().Before(expiry) {
			deadlineShed.Inc()
			reply.Code = wire.CodeDeadlineExceeded
			reply.Err = "deadline expired while queued"
			return reply
		}
	}
	// A cancel that landed while queued means the client is gone: drop
	// the work before burning the slot on it.
	if ctx.Err() != nil {
		return nil
	}

	// Timestamps are taken only when someone will consume them: a traced
	// request needs span records, an observed server wants metrics and its
	// own trace. The plain path stays clock-free beyond recv.
	traced := msg.Trace != nil
	observed := sink != nil || reqs != nil
	var dispatch, execEnd time.Time
	if traced || observed {
		dispatch = time.Now()
	}
	out, usage, err := h(ctx, msg.OpType, msg.Payload)
	if traced || observed {
		execEnd = time.Now()
	}
	if err != nil {
		reply.Err = err.Error()
		reply.Usage = usage
	} else {
		reply.Payload = out
		reply.Usage = usage
	}

	if traced || observed {
		respondEnd := time.Now()
		queueNs := dispatch.Sub(recv).Nanoseconds()
		execNs := execEnd.Sub(dispatch).Nanoseconds()
		recs := []wire.SpanRecord{
			{Name: obs.SpanServerQueue, StartOffsetNs: 0, DurationNs: queueNs},
			{Name: obs.SpanServerExec, StartOffsetNs: queueNs, DurationNs: execNs},
			{Name: obs.SpanServerRespond, StartOffsetNs: queueNs + execNs, DurationNs: respondEnd.Sub(execEnd).Nanoseconds()},
		}
		if traced {
			reply.Trace = msg.Trace
			reply.Spans = recs
		}
		reqs.Inc()
		if err != nil {
			errsC.Inc()
		}
		execH.Observe(execEnd.Sub(dispatch).Seconds())
		if sink != nil {
			var traceID uint64
			if traced {
				traceID = msg.Trace.TraceID
			}
			sink.Emit(&obs.DecisionTrace{
				OpID:      traceID,
				Operation: msg.Service + "/" + msg.OpType,
				Begin:     recv,
				End:       respondEnd,
				Aborted:   err != nil,
				Spans:     RebaseSpans(name, recv, 0, recs),
			})
		}
	}
	// A stream cancelled mid-execution has nobody waiting: the work is
	// accounted above, but the reply is not worth the bytes.
	if ctx.Err() != nil {
		return nil
	}
	return reply
}
