package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/statesync"
)

// pollEvery is the visibility poller's period: the resolution of every
// visibility figure.
const pollEvery = time.Millisecond

// writeIDHeader carries, on the response to an edge write, the id under
// which the visibility poller tracks it.
const writeIDHeader = "X-Write-Id"

// ownHeads is a writer's own-actor version-vector entries, one per CRDT
// component.
type ownHeads map[string]uint64

// pendingWrite is an edge write waiting to be applied everywhere.
type pendingWrite struct {
	edge            int
	target          ownHeads
	resp            time.Time // zero until the client has the response
	cloudAt, peerAt time.Time
}

// visibility measures how long an edge write takes, from its response
// at the client, to be applied at the cloud and at every peer edge.
// "Applied" means the replica's heads cover the writer's own-actor
// entries as they stood right after the write: they are read inside the
// write's exclusive slot, from a wrapper around the edge server's
// AfterInvoke, so no later write can have moved them. The poller reads
// heads under the transports' shared RDo slots.
type visibility struct {
	dep    *core.Deployment
	actors []map[string]crdt.ActorID // per edge: component → own actor
	// last is, per edge, the own entries after its latest write. Only
	// AfterInvoke, inside that edge's exclusive slot, touches it.
	last   []ownHeads
	nextID atomic.Uint64
	// slots hands a write's id from AfterInvoke to the front handler
	// that called Server.Invoke, keyed by the goroutine that runs both.
	slots sync.Map

	mu      sync.Mutex
	pending map[uint64]*pendingWrite
	total   []float64 // ms, response → applied at cloud and every peer
	cloud   []float64 // ms, response → applied at cloud
	peer    []float64 // ms, applied at cloud → applied at every peer

	polls    int
	pollTime time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// newVisibility wraps every edge server's AfterInvoke. Call it before
// any front accepts traffic.
func newVisibility(dep *core.Deployment) *visibility {
	v := &visibility{dep: dep, pending: map[uint64]*pendingWrite{}}
	for i, e := range dep.Edges {
		v.actors = append(v.actors, map[string]crdt.ActorID{
			statesync.CompJSON:   e.State.JSON.Actor(),
			statesync.CompTables: e.State.Tables.Doc().Actor(),
			statesync.CompFiles:  e.State.Files.Doc().Actor(),
		})
		v.last = append(v.last, v.own(i, edgeHeads(e)))
		after := e.Server.AfterInvoke
		e.Server.AfterInvoke = func() {
			if after != nil {
				after()
			}
			v.captured(i)
		}
	}
	return v
}

func edgeHeads(e *core.EdgeReplica) statesync.Heads {
	var h statesync.Heads
	e.TCP.RDo(func() { h = e.State.Heads() })
	return h
}

func (v *visibility) own(edge int, h statesync.Heads) ownHeads {
	out := ownHeads{}
	for comp, actor := range v.actors[edge] {
		out[comp] = h[comp][actor]
	}
	return out
}

func covers(h statesync.Heads, actors map[string]crdt.ActorID, target ownHeads) bool {
	for comp, seq := range target {
		if h[comp][actors[comp]] < seq {
			return false
		}
	}
	return true
}

// captured runs in an edge write's exclusive slot, after the binding
// mirror and persist. A write that left the edge's own entries unchanged
// (a refused checkout, say) replicates nothing and is not tracked.
func (v *visibility) captured(edge int) {
	target := v.own(edge, v.dep.Edges[edge].State.Heads())
	advanced := false
	for comp, seq := range target {
		if seq > v.last[edge][comp] {
			advanced = true
		}
	}
	if !advanced {
		return
	}
	v.last[edge] = target
	id := v.nextID.Add(1)
	v.mu.Lock()
	v.pending[id] = &pendingWrite{edge: edge, target: target}
	v.mu.Unlock()
	v.slots.Store(goid(), id)
}

// claim returns the id of the write the calling goroutine's last
// Server.Invoke tracked, as a header value ("" when it tracked none).
func (v *visibility) claim() string {
	if id, ok := v.slots.LoadAndDelete(goid()); ok {
		return strconv.FormatUint(id.(uint64), 10)
	}
	return ""
}

// respond notes that the client received write id's response at at.
func (v *visibility) respond(id string, at time.Time) {
	n, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if w := v.pending[n]; w != nil {
		w.resp = at
		v.complete(n, w)
	}
}

func (v *visibility) start() {
	v.stop, v.done = make(chan struct{}), make(chan struct{})
	go v.loop()
}

// finish stops tracking writes whose response the client never saw,
// waits (up to budget) for the rest to be applied, then stops the
// poller. It returns how many writes never became visible.
func (v *visibility) finish(budget time.Duration) int {
	v.mu.Lock()
	for id, w := range v.pending {
		if w.resp.IsZero() {
			delete(v.pending, id)
		}
	}
	v.mu.Unlock()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		v.mu.Lock()
		n := len(v.pending)
		v.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(v.stop)
	<-v.done
	v.mu.Lock()
	defer v.mu.Unlock()
	n := len(v.pending)
	clear(v.pending)
	return n
}

func (v *visibility) loop() {
	defer close(v.done)
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	first := time.Now()
	for {
		select {
		case <-v.stop:
			v.pollTime = time.Since(first)
			return
		case <-tick.C:
		}
		v.poll()
	}
}

func (v *visibility) poll() {
	v.mu.Lock()
	v.polls++
	n := len(v.pending)
	v.mu.Unlock()
	if n == 0 {
		return
	}
	var cloud statesync.Heads
	v.dep.TCPMaster.RDo(func() { cloud = v.dep.CloudState.Heads() })
	heads := make([]statesync.Heads, len(v.dep.Edges))
	for i, e := range v.dep.Edges {
		heads[i] = edgeHeads(e)
	}
	now := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	for id, w := range v.pending {
		actors := v.actors[w.edge]
		if w.cloudAt.IsZero() && covers(cloud, actors, w.target) {
			w.cloudAt = now
		}
		if w.peerAt.IsZero() {
			all := true
			for i := range heads {
				if i != w.edge && !covers(heads[i], actors, w.target) {
					all = false
				}
			}
			if all {
				w.peerAt = now
			}
		}
		v.complete(id, w)
	}
}

// complete records write id once it is applied everywhere and its
// response has arrived; v.mu is held. A write applied before the client
// had its response records a negative time.
func (v *visibility) complete(id uint64, w *pendingWrite) {
	if w.resp.IsZero() || w.cloudAt.IsZero() || w.peerAt.IsZero() {
		return
	}
	end := w.cloudAt
	if w.peerAt.After(end) {
		end = w.peerAt
	}
	v.total = append(v.total, ms(end.Sub(w.resp)))
	v.cloud = append(v.cloud, ms(w.cloudAt.Sub(w.resp)))
	v.peer = append(v.peer, ms(end.Sub(w.cloudAt)))
	delete(v.pending, id)
}

// visResult pools the visibility samples of several episodes.
type visResult struct {
	totals      [][]float64 // per episode
	cloud, peer []float64
	polls       int
	pollTime    time.Duration
}

// visChunkSize is the fewest visibility samples in a chunk. Their tail
// is bounded by two sync ticker periods, so 300 samples (three beyond
// the 99th percentile) place it, and a rung yields chunks enough for
// the median to set aside one that a stall of the host stretched.
const visChunkSize = 300

// typical is the chunked q-quantile of response → applied everywhere.
func (r *visResult) typical(q float64) float64 {
	v, _ := chunked(r.totals, q, visChunkSize)
	return v
}

func (r *visResult) add(v *visibility) {
	v.mu.Lock()
	defer v.mu.Unlock()
	r.totals = append(r.totals, v.total)
	r.cloud = append(r.cloud, v.cloud...)
	r.peer = append(r.peer, v.peer...)
	r.polls += v.polls
	r.pollTime += v.pollTime
}

// resolution is the mean poll period actually achieved, in ms.
func (r *visResult) resolution() float64 {
	if r.polls == 0 {
		return 0
	}
	return ms(r.pollTime) / float64(r.polls)
}
