package statesync

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file provides a real-network transport for the synchronization
// protocol — the analog of the paper's bidirectional socket.io channel.
// A TCPMaster listens for edge replicas; each TCPEdge dials in,
// exchanges a hello carrying its version vector, and both sides then
// push state deltas periodically. TCP's reliable ordered delivery lets
// acknowledgements advance optimistically on write.
//
// The transport is supervision-grade: a TCPEdge that loses its
// connection reconnects with exponential backoff and jitter,
// re-handshaking from the peers' declared CRDT heads so no delta is
// lost (or applied twice) across a partition; both sides exchange
// heartbeat frames and enforce read deadlines so a silently dead peer
// is detected; and the TCPMaster tracks live connections in a registry
// so Close tears every session down promptly. TCPConfig (tcpconfig.go)
// tunes all of it, and SetObs exports connection state through
// statesync.tcp.* counters and gauges.
//
// The virtual-time Manager remains the evaluation vehicle; this
// transport is for deployments that span real processes.

// Wire-level framing — the frame type, compression, vectored writes,
// and the in-flight window — lives in wire.go.

// badHelloErr describes a failed hello exchange without ever wrapping a
// nil error: when the frame decoded but carried the wrong kind, the
// kind itself is the diagnosis.
func badHelloErr(who string, f *frame, err error) error {
	if err != nil {
		return fmt.Errorf("statesync: bad %s: %w", who, err)
	}
	return fmt.Errorf("statesync: bad %s: unexpected %q frame", who, f.Kind)
}

// TCPStats counts transport traffic and lifecycle events.
type TCPStats struct {
	BytesSent      int64
	BytesReceived  int64
	FramesSent     int64
	FramesRecv     int64
	HeartbeatsSent int64
	HeartbeatsRecv int64
	// ChangesRecv counts CRDT changes carried by received state frames;
	// ChangesApplied counts those actually integrated (the CRDT layer
	// ignores duplicates, so a gap between the two means a peer resent
	// operations the replica already had).
	ChangesRecv    int64
	ChangesApplied int64
	// Connects counts completed handshakes; Disconnects counts session
	// teardowns.
	Connects    int64
	Disconnects int64
	// AcksSent/AcksRecv count state frames acknowledged via watermark
	// acks (sent only between windowing-capable peers).
	AcksSent int64
	AcksRecv int64
	// OpsElided counts CRDT ops dropped by pre-send coalescing — ops a
	// later op in the same batch provably eclipsed.
	OpsElided int64
	// WindowStalls counts pusher ticks skipped because the in-flight
	// window was full (backpressure from a slow peer).
	WindowStalls int64
	// CompressedFrames counts outbound frames shipped flate-compressed.
	CompressedFrames int64
}

// ConnState is an edge link's lifecycle phase.
type ConnState string

// Edge connection states.
const (
	ConnConnected    ConnState = "connected"
	ConnReconnecting ConnState = "reconnecting"
	ConnDisconnected ConnState = "disconnected"
)

// EdgeStatus is a snapshot of a TCPEdge's supervision state.
type EdgeStatus struct {
	State ConnState `json:"state"`
	// Reconnects counts successful re-handshakes after a connection
	// loss (the initial connection is not counted).
	Reconnects int64 `json:"reconnects"`
	// DialAttempts counts reconnect dial attempts, successful or not.
	DialAttempts int64 `json:"dial_attempts"`
	// LastError is the most recent connection error ("" when none).
	LastError string `json:"last_error,omitempty"`
}

// tcpObs holds pre-resolved instruments for one transport endpoint;
// every field is nil-safe, so the zero value disables mirroring.
type tcpObs struct {
	connects, disconnects, reconnects, dialErrors *obs.Counter
	heartbeatsSent, heartbeatsRecv                *obs.Counter
	bytesSent, bytesRecv                          *obs.Counter
	changesRecv, changesApplied                   *obs.Counter
	// edgesConnected is the master's live-session gauge; connState is
	// the edge's lifecycle gauge (0 disconnected, 1 reconnecting, 2
	// connected).
	edgesConnected, connState *obs.Gauge
	// The statesync.batch family (mounted under the endpoint prefix)
	// tracks the high-throughput send path: frames per vectored write,
	// ops elided by coalescing, watermark acks, window backpressure,
	// and compression.
	batchAcksSent, batchAcksRecv          *obs.Counter
	batchOpsElided, batchWindowStalls     *obs.Counter
	batchCompressedFrames                 *obs.Counter
	batchFramesPerWrite, batchChangesSent *obs.Histogram
}

func newTCPObs(o *obs.Obs, prefix string) tcpObs {
	return tcpObs{
		connects:              o.Counter(prefix + ".connects"),
		disconnects:           o.Counter(prefix + ".disconnects"),
		reconnects:            o.Counter(prefix + ".reconnects"),
		dialErrors:            o.Counter(prefix + ".dial_errors"),
		heartbeatsSent:        o.Counter(prefix + ".heartbeats_sent"),
		heartbeatsRecv:        o.Counter(prefix + ".heartbeats_recv"),
		bytesSent:             o.Counter(prefix + ".bytes_sent"),
		bytesRecv:             o.Counter(prefix + ".bytes_recv"),
		changesRecv:           o.Counter(prefix + ".changes_recv"),
		changesApplied:        o.Counter(prefix + ".changes_applied"),
		edgesConnected:        o.Gauge(prefix + ".edges_connected"),
		connState:             o.Gauge(prefix + ".conn_state"),
		batchAcksSent:         o.Counter(prefix + ".batch.acks_sent"),
		batchAcksRecv:         o.Counter(prefix + ".batch.acks_recv"),
		batchOpsElided:        o.Counter(prefix + ".batch.ops_elided"),
		batchWindowStalls:     o.Counter(prefix + ".batch.window_stalls"),
		batchCompressedFrames: o.Counter(prefix + ".batch.compressed_frames"),
		batchFramesPerWrite:   o.Histogram(prefix + ".batch.frames_per_write"),
		batchChangesSent:      o.Histogram(prefix + ".batch.changes_per_push"),
	}
}

// connStateGauge maps a ConnState to its gauge encoding.
func connStateGauge(s ConnState) float64 {
	switch s {
	case ConnConnected:
		return 2
	case ConnReconnecting:
		return 1
	default:
		return 0
	}
}

// TCPMaster is the cloud master's listener: it accepts edge replicas and
// keeps them synchronized with the master endpoint's state.
type TCPMaster struct {
	ep  *Endpoint
	ln  net.Listener
	cfg TCPConfig

	mu      sync.RWMutex // guards ep state, stats, and the registry
	stats   TCPStats
	closed  bool
	conns   map[net.Conn]*masterConn
	wg      sync.WaitGroup
	onError func(error)
	o       tcpObs
}

// masterConn is the registry record for one accepted connection.
type masterConn struct {
	// Name is the edge's self-declared name (hello.From), "" until the
	// handshake completes.
	Name string
	// Addr is the remote address.
	Addr string
	// handshaked marks a completed hello exchange.
	handshaked bool
}

// MasterConnInfo describes one live, handshaked edge session.
type MasterConnInfo struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// ServeMaster starts a master on addr ("127.0.0.1:0" for an ephemeral
// port) with the default fault-tolerance settings at the given sync
// interval. Close must be called to release the listener and goroutines.
func ServeMaster(addr string, ep *Endpoint, interval time.Duration) (*TCPMaster, error) {
	return ServeMasterConfig(addr, ep, DefaultTCPConfig(interval))
}

// ServeMasterConfig starts a master with explicit transport settings.
func ServeMasterConfig(addr string, ep *Endpoint, cfg TCPConfig) (*TCPMaster, error) {
	if ep == nil || ep.State == nil {
		return nil, errors.New("statesync: nil master endpoint")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statesync: listen: %w", err)
	}
	m := &TCPMaster{ep: ep, ln: ln, cfg: cfg, conns: map[net.Conn]*masterConn{}}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the listener address (for edges to dial).
func (m *TCPMaster) Addr() string { return m.ln.Addr().String() }

// SetErrorHandler installs a callback for connection errors.
func (m *TCPMaster) SetErrorHandler(f func(error)) { m.onError = f }

// SetObs mirrors the master's transport counters into the registry
// under statesync.tcp.master.* (see OBSERVABILITY.md). A nil Obs
// disables mirroring.
func (m *TCPMaster) SetObs(o *obs.Obs) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.o = newTCPObs(o, "statesync.tcp.master")
}

// Do runs f while holding the master's state lock; all local mutations
// of the master's replicated state must go through it.
func (m *TCPMaster) Do(f func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f()
}

// RDo runs f while holding the master's state lock in shared mode:
// concurrent RDo sections run in parallel with each other but serialize
// against Do and against the transport's background goroutines. f must
// not mutate replicated state — the concurrent serve path runs
// write-guarded read-only invocations inside it.
func (m *TCPMaster) RDo(f func()) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f()
}

// Stats returns a snapshot of transport counters.
func (m *TCPMaster) Stats() TCPStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Connections lists the live, handshaked edge sessions.
func (m *TCPMaster) Connections() []MasterConnInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MasterConnInfo, 0, len(m.conns))
	for _, info := range m.conns {
		if info.handshaked {
			out = append(out, MasterConnInfo{Name: info.Name, Addr: info.Addr})
		}
	}
	return out
}

// Close stops accepting, tears down every live edge session, and waits
// for all goroutines. It is idempotent and returns promptly even with
// edges still attached: the registry lets it unblock readers by closing
// their connections.
func (m *TCPMaster) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	victims := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		victims = append(victims, c)
	}
	m.mu.Unlock()
	err := m.ln.Close()
	for _, c := range victims {
		_ = c.Close()
	}
	m.wg.Wait()
	return err
}

func (m *TCPMaster) fail(err error) {
	if m.onError != nil && err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
		m.onError(err)
	}
}

func (m *TCPMaster) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			_ = conn.Close()
			return
		}
		m.conns[conn] = &masterConn{Addr: conn.RemoteAddr().String()}
		m.wg.Add(1)
		m.mu.Unlock()
		go m.serveConn(conn)
	}
}

// deregister removes a finished session from the registry and updates
// the connection accounting.
func (m *TCPMaster) deregister(conn net.Conn) {
	m.mu.Lock()
	info := m.conns[conn]
	delete(m.conns, conn)
	if info != nil && info.handshaked {
		m.stats.Disconnects++
		m.o.disconnects.Add(1)
	}
	m.o.edgesConnected.Set(float64(m.handshakedLocked()))
	m.mu.Unlock()
}

// handshakedLocked counts live handshaked sessions; callers hold m.mu.
func (m *TCPMaster) handshakedLocked() int {
	n := 0
	for _, info := range m.conns {
		if info.handshaked {
			n++
		}
	}
	return n
}

// serveConn handles one edge: hello exchange, then a reader applying
// inbound edge_state frames while a pusher ships cloud_state deltas and
// heartbeats. The read deadline declares a silent peer dead.
func (m *TCPMaster) serveConn(conn net.Conn) {
	defer m.wg.Done()
	defer func() { _ = conn.Close() }()
	defer m.deregister(conn)

	if m.cfg.DialTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(m.cfg.DialTimeout))
	}
	r := bufio.NewReader(conn)
	hello, n, err := readFrame(r)
	if err != nil || hello.Kind != frameHello {
		m.fail(badHelloErr("hello", hello, err))
		return
	}
	_ = conn.SetDeadline(time.Time{})
	m.mu.Lock()
	m.stats.BytesReceived += int64(n)
	m.stats.FramesRecv++
	m.o.bytesRecv.Add(int64(n))
	reply := &frame{
		Kind:  frameHello,
		Heads: m.ep.declaredHeads(),
		// Declare our window (asking the edge for acks) and accept
		// compression only if both sides want it.
		Window:   m.cfg.window(),
		Compress: m.cfg.Compression && hello.Compress,
	}
	sent, err := writeFrame(conn, reply)
	m.stats.BytesSent += int64(sent)
	m.stats.FramesSent++
	m.o.bytesSent.Add(int64(sent))
	peerKnown := hello.Heads
	if err == nil {
		if info := m.conns[conn]; info != nil {
			info.Name = hello.From
			info.handshaked = true
		}
		m.stats.Connects++
		m.o.connects.Add(1)
		m.o.edgesConnected.Set(float64(m.handshakedLocked()))
	}
	m.mu.Unlock()
	if err != nil {
		m.fail(err)
		return
	}
	wc := newWireConn(conn, m.cfg, hello)

	stop := make(chan struct{})
	var once sync.Once
	shutdown := func() { once.Do(func() { close(stop); _ = conn.Close() }) }
	defer shutdown()

	// Pusher: periodically ship deltas the edge is missing, plus
	// heartbeats that keep an idle link inside the edge's read deadline.
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer shutdown()
		ticker := time.NewTicker(m.cfg.Interval)
		defer ticker.Stop()
		var hbC <-chan time.Time
		if m.cfg.Heartbeat > 0 {
			hb := time.NewTicker(m.cfg.Heartbeat)
			defer hb.Stop()
			hbC = hb.C
		}
		for {
			select {
			case <-stop:
				return
			case <-hbC:
				n, fr, _, err := wc.writeFrames(&frame{Kind: frameHeartbeat})
				m.mu.Lock()
				m.stats.BytesSent += int64(n)
				m.stats.FramesSent += int64(fr)
				m.stats.HeartbeatsSent += int64(fr)
				m.o.bytesSent.Add(int64(n))
				m.o.heartbeatsSent.Add(int64(fr))
				m.mu.Unlock()
				if err != nil {
					m.fail(err)
					return
				}
			case <-ticker.C:
				m.mu.Lock()
				if err := m.ep.refresh(); err != nil {
					m.fail(err)
				}
				delta := m.ep.State.Delta(peerKnown)
				var heads Heads
				if !delta.Empty() {
					heads = m.ep.State.Heads()
				}
				m.mu.Unlock()
				if delta.Empty() {
					continue
				}
				frames, elided := buildStateFrames(delta, m.cfg.batchChanges(), true)
				granted := wc.reserveUpTo(len(frames))
				if granted < len(frames) {
					// Window backpressure: the edge has not acked enough of
					// what we already pipelined. Ship what fits (possibly
					// nothing); the cursor only advances past what was
					// sent, so the rest retries next tick.
					m.mu.Lock()
					m.stats.WindowStalls++
					m.o.batchWindowStalls.Add(1)
					m.mu.Unlock()
					if granted == 0 {
						continue
					}
				}
				sent := frames[:granted]
				// wrote/comp count only frames that fully reached the wire —
				// a write error mid-batch must not credit the remainder.
				n, wrote, comp, err := wc.writeFrames(sent...)
				m.mu.Lock()
				m.stats.BytesSent += int64(n)
				m.stats.FramesSent += int64(wrote)
				m.stats.OpsElided += int64(elided)
				m.stats.CompressedFrames += int64(comp)
				m.o.bytesSent.Add(int64(n))
				m.o.batchOpsElided.Add(int64(elided))
				m.o.batchCompressedFrames.Add(int64(comp))
				m.o.batchFramesPerWrite.Observe(float64(len(sent)))
				m.o.batchChangesSent.Observe(float64(delta.Changes()))
				if err == nil {
					if granted == len(frames) {
						// Merge, not assign: heads was read before the
						// unlock, and the reader may have advanced
						// peerKnown past it since (what the edge sent us
						// meanwhile). Assigning would drop that and echo
						// the edge's own changes back next tick.
						peerKnown = mergeHeads(peerKnown, heads)
					} else {
						for _, f := range sent {
							peerKnown = advanceHeads(peerKnown, f.Delta)
						}
					}
				}
				m.mu.Unlock()
				if err != nil {
					m.fail(err)
					return
				}
			}
		}
	}()

	// Reader: apply inbound edge_state, count heartbeats and acks, and
	// treat a silent peer as dead once the read deadline lapses.
	for {
		if m.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(m.cfg.ReadTimeout))
		}
		f, n, err := readFrame(r)
		if err != nil {
			if isTimeout(err) {
				m.fail(fmt.Errorf("statesync: edge silent for %v, declaring dead: %w", m.cfg.ReadTimeout, err))
			}
			return
		}
		ackNow := 0
		m.mu.Lock()
		m.stats.BytesReceived += int64(n)
		m.stats.FramesRecv++
		m.o.bytesRecv.Add(int64(n))
		var applyErr error
		switch f.Kind {
		case frameHeartbeat:
			m.stats.HeartbeatsRecv++
			m.o.heartbeatsRecv.Add(1)
		case frameAck:
			wc.ackRecv(f.Acked)
			m.stats.AcksRecv += int64(f.Acked)
			m.o.batchAcksRecv.Add(int64(f.Acked))
		case frameState:
			recv := int64(f.Delta.Changes())
			m.stats.ChangesRecv += recv
			m.o.changesRecv.Add(recv)
			var applied int
			applied, applyErr = m.ep.applyCount(f.Delta)
			m.stats.ChangesApplied += int64(applied)
			m.o.changesApplied.Add(int64(applied))
			// The edge evidently knows these operations — advance the
			// send cursor past them so they are not echoed back.
			peerKnown = advanceHeads(peerKnown, f.Delta)
			if applyErr == nil {
				// The delta is applied and persisted (persist-before-ack
				// inside applyCount) — safe to acknowledge.
				ackNow = wc.noteState(r.Buffered() == 0)
			}
		}
		m.mu.Unlock()
		if applyErr != nil {
			m.fail(applyErr)
			return
		}
		if ackNow > 0 {
			n, fr, _, err := wc.writeFrames(&frame{Kind: frameAck, Acked: ackNow})
			m.mu.Lock()
			m.stats.BytesSent += int64(n)
			m.stats.FramesSent += int64(fr)
			if fr > 0 {
				m.stats.AcksSent += int64(ackNow)
				m.o.batchAcksSent.Add(int64(ackNow))
			}
			m.o.bytesSent.Add(int64(n))
			m.mu.Unlock()
			if err != nil {
				m.fail(err)
				return
			}
		}
	}
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TCPEdge is one edge replica's supervised connection to the master:
// when the link drops it reconnects with exponential backoff and
// re-handshakes from the CRDT heads, so synchronization resumes exactly
// where the partition interrupted it.
type TCPEdge struct {
	ep   *Endpoint
	addr string
	cfg  TCPConfig

	mu        sync.RWMutex // guards ep state, stats, status, conn
	stats     TCPStats
	status    EdgeStatus
	peerKnown Heads
	conn      net.Conn
	onError   func(error)
	o         tcpObs

	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once
	rng  *rand.Rand // supervisor goroutine only
}

// DialEdge connects an edge endpoint to a master with the default
// fault-tolerance settings at the given sync interval and starts
// background synchronization. Close must be called to stop it.
func DialEdge(addr string, ep *Endpoint, interval time.Duration) (*TCPEdge, error) {
	return DialEdgeConfig(addr, ep, DefaultTCPConfig(interval))
}

// DialEdgeConfig connects with explicit transport settings. The initial
// dial is synchronous — a dead address fails fast — and only later
// connection losses enter the reconnect loop.
func DialEdgeConfig(addr string, ep *Endpoint, cfg TCPConfig) (*TCPEdge, error) {
	if ep == nil || ep.State == nil {
		return nil, errors.New("statesync: nil edge endpoint")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &TCPEdge{
		ep:   ep,
		addr: addr,
		cfg:  cfg,
		stop: make(chan struct{}),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	conn, r, wc, err := e.connect()
	if err != nil {
		return nil, err
	}
	e.setState(ConnConnected, nil)
	e.wg.Add(1)
	go e.supervise(conn, r, wc)
	return e, nil
}

// SetErrorHandler installs a callback for connection errors.
func (e *TCPEdge) SetErrorHandler(f func(error)) { e.onError = f }

// SetObs mirrors the edge's transport counters into the registry under
// statesync.tcp.edge.<name>.* (see OBSERVABILITY.md). A nil Obs
// disables mirroring.
func (e *TCPEdge) SetObs(o *obs.Obs) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.o = newTCPObs(o, "statesync.tcp.edge."+e.ep.Name)
	e.o.connState.Set(connStateGauge(e.status.State))
}

// Do runs f while holding the edge's state lock.
func (e *TCPEdge) Do(f func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f()
}

// RDo runs f while holding the edge's state lock in shared mode; see
// TCPMaster.RDo for the contract.
func (e *TCPEdge) RDo(f func()) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	f()
}

// Stats returns a snapshot of transport counters.
func (e *TCPEdge) Stats() TCPStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Status returns a snapshot of the supervision state.
func (e *TCPEdge) Status() EdgeStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// Close stops synchronization (including any in-progress reconnect
// wait) and closes the connection. It is idempotent.
func (e *TCPEdge) Close() error {
	e.once.Do(func() {
		close(e.stop)
		e.mu.Lock()
		if e.conn != nil {
			_ = e.conn.Close()
		}
		e.mu.Unlock()
	})
	e.wg.Wait()
	e.setState(ConnDisconnected, nil)
	return nil
}

func (e *TCPEdge) fail(err error) {
	if e.onError != nil && err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
		e.onError(err)
	}
}

// stopped reports whether Close has been requested.
func (e *TCPEdge) stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// setState records a supervision state transition (keeping LastError
// when err is nil) and mirrors it to the gauge.
func (e *TCPEdge) setState(s ConnState, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.status.State = s
	if err != nil {
		e.status.LastError = err.Error()
	}
	e.o.connState.Set(connStateGauge(s))
}

// connect dials the master and performs the hello exchange: the edge
// declares its current heads, the master replies with its own, and both
// sides resume delta exchange from exactly that knowledge — the
// re-handshake that makes a partition lossless and duplicate-free.
func (e *TCPEdge) connect() (net.Conn, *bufio.Reader, *wireConn, error) {
	conn, err := e.cfg.dial(e.addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("statesync: dial: %w", err)
	}
	if e.cfg.DialTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(e.cfg.DialTimeout))
	}
	e.mu.Lock()
	// Declare durable heads, not in-memory ones: after a crash-restart
	// the in-memory doc may hold unfsynced state the disk never saw, and
	// claiming it would make the master skip the delta forever.
	heads := e.ep.declaredHeads()
	name := e.ep.Name
	e.mu.Unlock()
	n, err := writeFrame(conn, &frame{
		Kind: frameHello, From: name, Heads: heads,
		// Declare our window (asking the master for acks) and offer
		// compression; the master's reply carries the conjunction.
		Window:   e.cfg.window(),
		Compress: e.cfg.Compression,
	})
	e.mu.Lock()
	e.stats.BytesSent += int64(n)
	e.stats.FramesSent++
	e.o.bytesSent.Add(int64(n))
	e.mu.Unlock()
	if err != nil {
		_ = conn.Close()
		return nil, nil, nil, err
	}
	r := bufio.NewReader(conn)
	hello, hn, err := readFrame(r)
	if err != nil || hello.Kind != frameHello {
		_ = conn.Close()
		return nil, nil, nil, badHelloErr("master hello", hello, err)
	}
	_ = conn.SetDeadline(time.Time{})
	e.mu.Lock()
	e.stats.BytesReceived += int64(hn)
	e.stats.FramesRecv++
	e.stats.Connects++
	e.o.bytesRecv.Add(int64(hn))
	e.o.connects.Add(1)
	e.peerKnown = hello.Heads
	e.conn = conn
	e.mu.Unlock()
	if e.stopped() {
		_ = conn.Close()
		return nil, nil, nil, net.ErrClosed
	}
	return conn, r, newWireConn(conn, e.cfg, hello), nil
}

// supervise owns the edge's connection lifecycle: run a session until
// the link fails, then reconnect with backoff and repeat, until Close
// or (with MaxRetries set) the retry budget is exhausted.
func (e *TCPEdge) supervise(conn net.Conn, r *bufio.Reader, wc *wireConn) {
	defer e.wg.Done()
	for {
		e.runSession(conn, r, wc)
		e.mu.Lock()
		e.conn = nil
		e.stats.Disconnects++
		e.o.disconnects.Add(1)
		e.mu.Unlock()
		if e.stopped() {
			e.setState(ConnDisconnected, nil)
			return
		}
		e.setState(ConnReconnecting, nil)
		var ok bool
		conn, r, wc, ok = e.reconnect()
		if !ok {
			return
		}
		e.mu.Lock()
		e.status.Reconnects++
		e.o.reconnects.Add(1)
		e.mu.Unlock()
		e.setState(ConnConnected, nil)
	}
}

// reconnect retries connect under the backoff schedule. It returns
// ok=false when Close intervened or MaxRetries was exhausted (the
// terminal state is recorded before returning).
func (e *TCPEdge) reconnect() (net.Conn, *bufio.Reader, *wireConn, bool) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if e.cfg.MaxRetries > 0 && attempt >= e.cfg.MaxRetries {
			err := fmt.Errorf("statesync: giving up after %d reconnect attempts: %w", attempt, lastErr)
			e.setState(ConnDisconnected, err)
			e.fail(err)
			return nil, nil, nil, false
		}
		delay := e.cfg.Backoff.Delay(attempt, e.rng)
		select {
		case <-e.stop:
			e.setState(ConnDisconnected, nil)
			return nil, nil, nil, false
		case <-time.After(delay):
		}
		e.mu.Lock()
		e.status.DialAttempts++
		e.mu.Unlock()
		conn, r, wc, err := e.connect()
		if err != nil {
			lastErr = err
			e.o.dialErrors.Add(1)
			e.setState(ConnReconnecting, err)
			continue
		}
		return conn, r, wc, true
	}
}

// runSession drives one live connection: a pusher goroutine ships
// deltas and heartbeats while the reader (this goroutine) applies
// inbound cloud_state under a dead-peer read deadline. It returns once
// the connection is unusable; the connection is closed on return.
func (e *TCPEdge) runSession(conn net.Conn, r *bufio.Reader, wc *wireConn) {
	stop := make(chan struct{})
	var once sync.Once
	shutdown := func() { once.Do(func() { close(stop); _ = conn.Close() }) }
	defer shutdown()

	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer shutdown()
		ticker := time.NewTicker(e.cfg.Interval)
		defer ticker.Stop()
		var hbC <-chan time.Time
		if e.cfg.Heartbeat > 0 {
			hb := time.NewTicker(e.cfg.Heartbeat)
			defer hb.Stop()
			hbC = hb.C
		}
		for {
			select {
			case <-stop:
				return
			case <-e.stop:
				return
			case <-hbC:
				n, fr, _, err := wc.writeFrames(&frame{Kind: frameHeartbeat})
				e.mu.Lock()
				e.stats.BytesSent += int64(n)
				e.stats.FramesSent += int64(fr)
				e.stats.HeartbeatsSent += int64(fr)
				e.o.bytesSent.Add(int64(n))
				e.o.heartbeatsSent.Add(int64(fr))
				e.mu.Unlock()
				if err != nil {
					e.fail(err)
					return
				}
			case <-ticker.C:
				e.mu.Lock()
				if err := e.ep.refresh(); err != nil {
					e.fail(err)
				}
				delta := e.ep.State.Delta(e.peerKnown)
				heads := Heads{}
				if !delta.Empty() {
					heads = e.ep.State.Heads()
				}
				e.mu.Unlock()
				if delta.Empty() {
					continue
				}
				frames, elided := buildStateFrames(delta, e.cfg.batchChanges(), true)
				granted := wc.reserveUpTo(len(frames))
				if granted < len(frames) {
					// Window backpressure: ship what fits (possibly
					// nothing); the cursor only advances past what was
					// sent, so the rest retries next tick.
					e.mu.Lock()
					e.stats.WindowStalls++
					e.o.batchWindowStalls.Add(1)
					e.mu.Unlock()
					if granted == 0 {
						continue
					}
				}
				sent := frames[:granted]
				// wrote/comp count only frames that fully reached the wire —
				// a write error mid-batch must not credit the remainder.
				n, wrote, comp, err := wc.writeFrames(sent...)
				e.mu.Lock()
				e.stats.BytesSent += int64(n)
				e.stats.FramesSent += int64(wrote)
				e.stats.OpsElided += int64(elided)
				e.stats.CompressedFrames += int64(comp)
				e.o.bytesSent.Add(int64(n))
				e.o.batchOpsElided.Add(int64(elided))
				e.o.batchCompressedFrames.Add(int64(comp))
				e.o.batchFramesPerWrite.Observe(float64(len(sent)))
				e.o.batchChangesSent.Observe(float64(delta.Changes()))
				if err == nil {
					if granted == len(frames) {
						// Merge, not assign: see the same step in
						// TCPMaster.serveConn.
						e.peerKnown = mergeHeads(e.peerKnown, heads)
					} else {
						for _, f := range sent {
							e.peerKnown = advanceHeads(e.peerKnown, f.Delta)
						}
					}
				}
				e.mu.Unlock()
				if err != nil {
					e.fail(err)
					return
				}
			}
		}
	}()

	for {
		if e.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(e.cfg.ReadTimeout))
		}
		f, n, err := readFrame(r)
		if err != nil {
			if isTimeout(err) {
				e.fail(fmt.Errorf("statesync: master silent for %v, declaring dead: %w", e.cfg.ReadTimeout, err))
			}
			return
		}
		ackNow := 0
		e.mu.Lock()
		e.stats.BytesReceived += int64(n)
		e.stats.FramesRecv++
		e.o.bytesRecv.Add(int64(n))
		var applyErr error
		switch f.Kind {
		case frameHeartbeat:
			e.stats.HeartbeatsRecv++
			e.o.heartbeatsRecv.Add(1)
		case frameAck:
			wc.ackRecv(f.Acked)
			e.stats.AcksRecv += int64(f.Acked)
			e.o.batchAcksRecv.Add(int64(f.Acked))
		case frameState:
			recv := int64(f.Delta.Changes())
			e.stats.ChangesRecv += recv
			e.o.changesRecv.Add(recv)
			var applied int
			applied, applyErr = e.ep.applyCount(f.Delta)
			e.stats.ChangesApplied += int64(applied)
			e.o.changesApplied.Add(int64(applied))
			// The master evidently knows these operations — advance the
			// send cursor past them so they are not echoed back.
			e.peerKnown = advanceHeads(e.peerKnown, f.Delta)
			if applyErr == nil {
				// Applied and persisted (persist-before-ack inside
				// applyCount) — safe to acknowledge.
				ackNow = wc.noteState(r.Buffered() == 0)
			}
		}
		e.mu.Unlock()
		if applyErr != nil {
			e.fail(applyErr)
			return
		}
		if ackNow > 0 {
			n, fr, _, err := wc.writeFrames(&frame{Kind: frameAck, Acked: ackNow})
			e.mu.Lock()
			e.stats.BytesSent += int64(n)
			e.stats.FramesSent += int64(fr)
			if fr > 0 {
				e.stats.AcksSent += int64(ackNow)
				e.o.batchAcksSent.Add(int64(ackNow))
			}
			e.o.bytesSent.Add(int64(n))
			e.mu.Unlock()
			if err != nil {
				e.fail(err)
				return
			}
		}
	}
}
