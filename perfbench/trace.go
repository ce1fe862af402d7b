package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Node indexes in spans: the cloud, then edge i at nodeEdge0+i.
const (
	nodeCloud = 0
	nodeEdge0 = 1
)

// spanKind names the layer boundary a span brackets.
type spanKind uint8

const (
	spanFront     spanKind = iota // HTTP front handler, whole request
	spanInvoke                    // cluster.Server.Invoke
	spanForward                   // edge front → cloud front round trip
	spanWaitRead                  // WrapRead entry → read body start
	spanWaitWrite                 // WrapInvoke entry → write body start
	spanBodyRead                  // read slot body
	spanBodyWrite                 // write slot body (includes AfterInvoke)
	spanAfter                     // AfterInvoke: binding mirror + persist
)

var spanNames = [...]string{"front", "invoke", "forward", "wait.read", "wait.write", "body.read", "body.write", "after_invoke"}

// spanRec is one recorded span. Spans of one request share rid; a
// forwarded request keeps its edge rid at the cloud.
type spanRec struct {
	RID   uint64 `json:"rid"`
	Node  int    `json:"node"`
	Kind  string `json:"kind"`
	kind  spanKind
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (r spanRec) dur() time.Duration { return time.Duration(r.End - r.Start) }

// tracer records spans in memory while on. Hooks reach the request id
// of the goroutine that runs Server.Invoke through gids, because the
// public hook fields carry no request context.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []spanRec

	gids sync.Map // goroutine id → rid
	// writeRID holds, per node, the rid of the write body currently in
	// the node's exclusive slot, for its AfterInvoke span.
	writeRID []uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) record(rid uint64, node int, kind spanKind, start, end time.Time) {
	rec := spanRec{RID: rid, Node: node, kind: kind,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// span is an open span; the zero value (tracing off) records nothing.
type span struct {
	t     *tracer
	rid   uint64
	node  int
	kind  spanKind
	start time.Time
	gid   uint64
}

// begin opens a front span. rid continues a forwarded request's id
// when not empty.
func (t *tracer) begin(rid string, node int) span {
	if t == nil || !t.on.Load() {
		return span{}
	}
	id, err := strconv.ParseUint(rid, 10, 64)
	if err != nil {
		id = t.nextID.Add(1)
	}
	g := goid()
	t.gids.Store(g, id)
	return span{t: t, rid: id, node: node, kind: spanFront, start: time.Now(), gid: g}
}

func (s span) child(kind spanKind) span {
	if s.t == nil {
		return span{}
	}
	return span{t: s.t, rid: s.rid, node: s.node, kind: kind, start: time.Now()}
}

// id is the request id to carry across a forward ("" when off).
func (s span) id() string {
	if s.t == nil {
		return ""
	}
	return strconv.FormatUint(s.rid, 10)
}

func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.record(s.rid, s.node, s.kind, s.start, time.Now())
	if s.kind == spanFront {
		s.t.gids.Delete(s.gid)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

func (t *tracer) ridOf() uint64 {
	if v, ok := t.gids.Load(goid()); ok {
		return v.(uint64)
	}
	return 0
}

// install wraps every server's public hook fields so the slot wait,
// slot body and AfterInvoke are timed while the tracer is on.
func (t *tracer) install(dep *core.Deployment) {
	t.writeRID = make([]uint64, 1+len(dep.Edges))
	t.wrap(dep.Cloud, nodeCloud)
	for i, e := range dep.Edges {
		t.wrap(e.Server, nodeEdge0+i)
	}
}

func (t *tracer) wrap(s *cluster.Server, node int) {
	read, write, after := orDirect(s.WrapRead), orDirect(s.WrapInvoke), s.AfterInvoke
	s.WrapRead = func(f func()) {
		if !t.on.Load() {
			read(f)
			return
		}
		rid, entry := t.ridOf(), time.Now()
		read(func() {
			start := time.Now()
			f()
			end := time.Now()
			t.record(rid, node, spanWaitRead, entry, start)
			t.record(rid, node, spanBodyRead, start, end)
		})
	}
	s.WrapInvoke = func(f func()) {
		if !t.on.Load() {
			write(f)
			return
		}
		rid, entry := t.ridOf(), time.Now()
		write(func() {
			start := time.Now()
			t.writeRID[node] = rid
			f()
			end := time.Now()
			t.record(rid, node, spanWaitWrite, entry, start)
			t.record(rid, node, spanBodyWrite, start, end)
		})
	}
	if after == nil {
		return
	}
	s.AfterInvoke = func() {
		if !t.on.Load() {
			after()
			return
		}
		start := time.Now()
		after()
		t.record(t.writeRID[node], node, spanAfter, start, time.Now())
	}
}

func orDirect(wrap func(func())) func(func()) {
	if wrap != nil {
		return wrap
	}
	return func(f func()) { f() }
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.Kind = spanNames[s.kind]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is the per-layer split of a traced rung's spans, in µs.
type layerTimes struct {
	frontSelf, forward               []float64
	invokeRead, invokeWrite          []float64
	waitRead, waitWrite              []float64
	execRead, execWrite, afterInvoke []float64
}

type spanKey struct {
	rid  uint64
	node int
}

// attribute computes self times: a front's self time is its span minus
// its invoke and forward children; a write's execution time is its slot
// body minus its AfterInvoke.
func attribute(spans []spanRec) (layerTimes, error) {
	var lt layerTimes
	byKey := map[spanKey][]spanRec{}
	for _, s := range spans {
		k := spanKey{s.RID, s.Node}
		byKey[k] = append(byKey[k], s)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for k, group := range byKey {
		var front, invoke, after *spanRec
		var children time.Duration
		wrote := false
		for i := range group {
			s := &group[i]
			switch s.kind {
			case spanFront:
				front = s
			case spanInvoke:
				invoke = s
				children += s.dur()
			case spanForward:
				children += s.dur()
				lt.forward = append(lt.forward, us(s.dur()))
			case spanWaitRead:
				lt.waitRead = append(lt.waitRead, us(s.dur()))
			case spanWaitWrite:
				lt.waitWrite = append(lt.waitWrite, us(s.dur()))
			case spanBodyRead:
				lt.execRead = append(lt.execRead, us(s.dur()))
			case spanBodyWrite:
				wrote = true
			case spanAfter:
				after = s
				lt.afterInvoke = append(lt.afterInvoke, us(s.dur()))
			}
		}
		for i := range group {
			if s := group[i]; s.kind == spanBodyWrite {
				body := s.dur()
				if after != nil {
					body -= after.dur()
				}
				lt.execWrite = append(lt.execWrite, us(body))
			}
		}
		if front != nil && k.node != nodeCloud {
			self := front.dur() - children
			if self < 0 {
				return lt, fmt.Errorf("span %d at node %d: children outlast the front", k.rid, k.node)
			}
			lt.frontSelf = append(lt.frontSelf, us(self))
		}
		if invoke != nil {
			if wrote {
				lt.invokeWrite = append(lt.invokeWrite, us(invoke.dur()))
			} else {
				lt.invokeRead = append(lt.invokeRead, us(invoke.dur()))
			}
		}
	}
	return lt, nil
}
