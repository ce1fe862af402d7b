package crdt

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoObject is returned when an operation targets an object the
// document does not hold.
var ErrNoObject = errors.New("crdt: no such object")

// ErrKindMismatch is returned when an operation is applied to an object
// of the wrong kind (e.g. a list insert on a map).
var ErrKindMismatch = errors.New("crdt: object kind mismatch")

// mapEntry is one LWW slot of a map object.
type mapEntry struct {
	val     Value
	ts      TS
	deleted bool
}

// listElem is one RGA element. Tombstoned elements stay in place to
// anchor concurrent inserts.
type listElem struct {
	id      string // creation timestamp, stringified
	idTS    TS     // creation timestamp, for insert ordering
	val     Value
	ts      TS // last-update timestamp (LWW for OpUpdate)
	deleted bool
}

// object is the storage for one map, list, or counter.
type object struct {
	kind    ObjKind
	entries map[string]*mapEntry
	elems   []listElem
	sums    map[ActorID]int64
	// parent and key locate the map slot the object was created under
	// (empty for the root). They are set by the first set that
	// references the object, whether or not that set wins its slot, so
	// ops on an object that lost a concurrent write still map back to
	// the key it was written under.
	parent ObjID
	key    string
}

func newObject(kind ObjKind) *object {
	o := &object{kind: kind}
	switch kind {
	case KindMap:
		o.entries = make(map[string]*mapEntry)
	case KindCounter:
		o.sums = make(map[ActorID]int64)
	}
	return o
}

// Doc is a replicated document: a tree of maps, lists, and counters
// rooted at RootObj. This is the paper's CRDT-JSON. Each replica holds
// its own Doc with a distinct actor ID; replicas exchange Changes via
// GetChanges/ApplyChanges and converge to the same state.
//
// A Doc is not safe for concurrent use; the synchronization runtime
// serializes access per replica.
type Doc struct {
	actor   ActorID
	counter uint64 // Lamport clock
	seq     uint64 // local change sequence
	vv      VersionVector
	objs    map[ObjID]*object
	history []Change
	// actorPos lists, per actor, the history positions of its changes.
	// An actor's changes enter history in sequence order, so each list
	// is sorted by Seq and GetChanges binary-searches it.
	actorPos map[ActorID][]int
	pending  []Op     // uncommitted local ops (already applied to state)
	parked   []Change // remote changes awaiting dependencies
	// version counts state mutations (local records plus integrated
	// remote changes). It is replica-local — never exchanged — and lets
	// the synchronization runtime skip idle replicas with one integer
	// compare instead of walking change history.
	version uint64
	// compacted records history truncation: changes covered by it have
	// been dropped and can no longer be served to lagging peers.
	compacted VersionVector
}

// NewDoc returns an empty document owned by the given actor.
func NewDoc(actor ActorID) *Doc {
	if actor == "" {
		panic("crdt: empty actor ID")
	}
	d := &Doc{
		actor:     actor,
		vv:        make(VersionVector),
		objs:      map[ObjID]*object{RootObj: newObject(KindMap)},
		actorPos:  make(map[ActorID][]int),
		compacted: make(VersionVector),
	}
	return d
}

// Actor returns the document's actor ID.
func (d *Doc) Actor() ActorID { return d.actor }

// Heads returns the document's version vector (its knowledge summary).
// GetChanges on a peer with this vector yields exactly the changes this
// document is missing.
func (d *Doc) Heads() VersionVector {
	d.Commit("")
	return d.vv.Clone()
}

// nextTS advances the Lamport clock and mints a fresh timestamp.
func (d *Doc) nextTS() TS {
	d.counter++
	return TS{Counter: d.counter, Actor: d.actor}
}

// record applies a freshly minted local op to the state and queues it for
// the next commit.
func (d *Doc) record(op Op) error {
	if err := d.applyOp(op); err != nil {
		return err
	}
	d.pending = append(d.pending, op)
	d.version++
	return nil
}

// Version returns the replica-local mutation counter: it advances on
// every local operation and every integrated remote change. Two equal
// readings bracket a window with no state change, so pollers can skip
// idle documents without computing deltas.
func (d *Doc) Version() uint64 { return d.version }

// Commit seals the uncommitted local operations into a Change with the
// given message. It is a no-op when there is nothing pending.
func (d *Doc) Commit(msg string) {
	if len(d.pending) == 0 {
		return
	}
	d.seq++
	ch := Change{
		Actor: d.actor,
		Seq:   d.seq,
		Deps:  d.vv.Clone(),
		Msg:   msg,
		Ops:   d.pending,
	}
	d.pending = nil
	d.vv[d.actor] = d.seq
	d.appendHistory(ch)
}

// appendHistory records a committed or integrated change at the end of
// history and in its actor's position list.
func (d *Doc) appendHistory(ch Change) {
	d.actorPos[ch.Actor] = append(d.actorPos[ch.Actor], len(d.history))
	d.history = append(d.history, ch)
}

// GetChanges returns every committed change not covered by since,
// committing pending local operations first. Passing nil returns the full
// history. This is the paper's getChanges API.
//
// After Compact, requests from peers older than the compaction point
// cannot be served incrementally; use GetChangesChecked to detect that.
//
// The lookup binary-searches each actor's position list for the first
// change past since, so its cost follows the number of actors and the
// size of the answer rather than the length of history.
func (d *Doc) GetChanges(since VersionVector) []Change {
	d.Commit("")
	var pos []int
	sources := 0
	for actor, ps := range d.actorPos {
		s := since[actor]
		i := sort.Search(len(ps), func(i int) bool { return d.history[ps[i]].Seq > s })
		if i < len(ps) {
			pos = append(pos, ps[i:]...)
			sources++
		}
	}
	switch {
	case len(pos) == 0:
		return nil
	case len(pos) == len(d.history):
		return append([]Change(nil), d.history...)
	case sources > 1:
		sort.Ints(pos) // history order
	}
	out := make([]Change, len(pos))
	for i, p := range pos {
		out[i] = d.history[p]
	}
	return out
}

// ErrCompacted is returned when a peer's version vector predates the
// document's compaction point: the dropped changes cannot be replayed
// and the peer must re-initialize from a fresh snapshot.
var ErrCompacted = errors.New("crdt: requested changes were compacted")

// GetChangesChecked is GetChanges with compaction awareness.
func (d *Doc) GetChangesChecked(since VersionVector) ([]Change, error) {
	d.Commit("")
	if !VersionVector(since).Covers(d.compacted) {
		return nil, fmt.Errorf("%w: peer at %v, compacted through %v", ErrCompacted, since, d.compacted)
	}
	return d.GetChanges(since), nil
}

// Compact drops history covered by through — typically the intersection
// of every peer's acknowledged heads. The document state is unaffected;
// only the replay log shrinks. Compacting beyond what a peer has
// acknowledged forces that peer onto a fresh snapshot (Save/Load).
func (d *Doc) Compact(through VersionVector) int {
	d.Commit("")
	// Never compact past our own knowledge.
	bound := through.Clone()
	for a, s := range bound {
		if s > d.vv[a] {
			bound[a] = d.vv[a]
		}
	}
	kept := d.history[:0]
	dropped := 0
	for _, ch := range d.history {
		if ch.Seq <= bound[ch.Actor] {
			dropped++
			continue
		}
		kept = append(kept, ch)
	}
	d.history = kept
	clear(d.actorPos)
	for i, ch := range d.history {
		d.actorPos[ch.Actor] = append(d.actorPos[ch.Actor], i)
	}
	d.compacted.Merge(bound)
	return dropped
}

// Compacted returns the compaction point (what the log no longer holds).
func (d *Doc) Compacted() VersionVector { return d.compacted.Clone() }

// HistoryLen reports the number of retained changes, for log-size
// accounting and compaction policies.
func (d *Doc) HistoryLen() int {
	d.Commit("")
	return len(d.history)
}

// ApplyChanges integrates changes received from a peer — the paper's
// applyChanges API. Duplicates are ignored; changes arriving before their
// causal dependencies are parked and applied once the gap fills. The
// returned count is the number of changes actually applied now.
func (d *Doc) ApplyChanges(chs []Change) (int, error) {
	return d.ApplyChangesFunc(chs, nil)
}

// ApplyChangesFunc is ApplyChanges calling integrated (when non-nil)
// with each change right after it is integrated, in integration order —
// including parked changes this batch released. Duplicates and changes
// that stay parked are not reported, so the calls are exactly the
// changes that altered the document.
func (d *Doc) ApplyChangesFunc(chs []Change, integrated func(Change)) (int, error) {
	d.Commit("")
	for _, ch := range chs {
		if ch.Seq == 0 {
			return 0, fmt.Errorf("crdt: change from %q has zero sequence", ch.Actor)
		}
		if d.vv[ch.Actor] >= ch.Seq || d.parkedHas(ch.Actor, ch.Seq) {
			continue // duplicate
		}
		d.parked = append(d.parked, ch)
	}
	applied := 0
	for {
		progress := false
		remaining := d.parked[:0]
		for _, ch := range d.parked {
			if d.applicable(ch) {
				if err := d.integrate(ch); err != nil {
					return applied, err
				}
				if integrated != nil {
					integrated(ch)
				}
				applied++
				progress = true
			} else if d.vv[ch.Actor] < ch.Seq {
				remaining = append(remaining, ch)
			}
		}
		d.parked = remaining
		if !progress {
			return applied, nil
		}
	}
}

// Parked reports how many received changes are waiting on missing
// dependencies.
func (d *Doc) Parked() int { return len(d.parked) }

func (d *Doc) parkedHas(actor ActorID, seq uint64) bool {
	for _, ch := range d.parked {
		if ch.Actor == actor && ch.Seq == seq {
			return true
		}
	}
	return false
}

func (d *Doc) applicable(ch Change) bool {
	return ch.Seq == d.vv[ch.Actor]+1 && d.vv.Covers(ch.Deps)
}

func (d *Doc) integrate(ch Change) error {
	for _, op := range ch.Ops {
		if err := d.applyOp(op); err != nil {
			return fmt.Errorf("crdt: applying change %s/%d: %w", ch.Actor, ch.Seq, err)
		}
		if op.TS.Counter > d.counter {
			d.counter = op.TS.Counter
		}
	}
	d.vv[ch.Actor] = ch.Seq
	d.appendHistory(ch)
	d.version++
	return nil
}

// applyOp mutates the state. It must be commutative across change-legal
// orders and idempotent at change granularity.
func (d *Doc) applyOp(op Op) error {
	switch op.Type {
	case OpMake:
		id := ObjID(op.TS.String())
		if _, ok := d.objs[id]; !ok {
			d.objs[id] = newObject(op.Kind)
		}
		return nil
	case OpSet, OpDel:
		o, err := d.obj(op.Obj, KindMap)
		if err != nil {
			return err
		}
		if op.Val.Kind == ValObj {
			if c := d.objs[op.Val.Obj]; c != nil && c.parent == "" {
				c.parent, c.key = op.Obj, op.Key
			}
		}
		e := o.entries[op.Key]
		if e == nil {
			e = &mapEntry{}
			o.entries[op.Key] = e
		}
		if !e.ts.Less(op.TS) && !e.ts.IsZero() {
			return nil // stale write loses
		}
		e.ts = op.TS
		if op.Type == OpDel {
			e.deleted = true
			e.val = Null
		} else {
			e.deleted = false
			e.val = op.Val
		}
		return nil
	case OpInsert:
		o, err := d.obj(op.Obj, KindList)
		if err != nil {
			return err
		}
		return o.insert(op)
	case OpUpdate:
		o, err := d.obj(op.Obj, KindList)
		if err != nil {
			return err
		}
		i := o.find(op.Elem)
		if i < 0 {
			return fmt.Errorf("crdt: update of unknown element %s: %w", op.Elem, ErrNoObject)
		}
		if o.elems[i].ts.Less(op.TS) {
			o.elems[i].ts = op.TS
			o.elems[i].val = op.Val
		}
		return nil
	case OpRemove:
		o, err := d.obj(op.Obj, KindList)
		if err != nil {
			return err
		}
		i := o.find(op.Elem)
		if i < 0 {
			return fmt.Errorf("crdt: remove of unknown element %s: %w", op.Elem, ErrNoObject)
		}
		o.elems[i].deleted = true
		return nil
	case OpAdd:
		o, err := d.obj(op.Obj, KindCounter)
		if err != nil {
			return err
		}
		o.sums[op.TS.Actor] += op.Delta
		return nil
	default:
		return fmt.Errorf("crdt: unknown op type %v", op.Type)
	}
}

func (d *Doc) obj(id ObjID, kind ObjKind) (*object, error) {
	o, ok := d.objs[id]
	if !ok {
		return nil, fmt.Errorf("crdt: object %q: %w", id, ErrNoObject)
	}
	if o.kind != kind {
		return nil, fmt.Errorf("crdt: object %q is %v, want %v: %w", id, o.kind, kind, ErrKindMismatch)
	}
	return o, nil
}

// insert integrates an RGA insert: the element goes after op.Elem (or the
// head), skipping past concurrent inserts at the same anchor with larger
// creation timestamps, which yields a total order all replicas agree on.
func (o *object) insert(op Op) error {
	if o.find(op.TS.String()) >= 0 {
		return nil // idempotent
	}
	pos := 0
	if op.Elem != "" {
		i := o.find(op.Elem)
		if i < 0 {
			return fmt.Errorf("crdt: insert after unknown element %s: %w", op.Elem, ErrNoObject)
		}
		pos = i + 1
	}
	for pos < len(o.elems) && op.TS.Less(o.elems[pos].idTS) {
		pos++
	}
	el := listElem{id: op.TS.String(), idTS: op.TS, val: op.Val, ts: op.TS}
	o.elems = append(o.elems, listElem{})
	copy(o.elems[pos+1:], o.elems[pos:])
	o.elems[pos] = el
	return nil
}

// find returns the index of the element with the given ID, or -1.
func (o *object) find(id string) int {
	for i := range o.elems {
		if o.elems[i].id == id {
			return i
		}
	}
	return -1
}

// visible returns indices of non-tombstoned elements.
func (o *object) visible() []int {
	var idx []int
	for i := range o.elems {
		if !o.elems[i].deleted {
			idx = append(idx, i)
		}
	}
	return idx
}

// ---- Local mutation API ----

// PutScalar sets key in map obj to a Go scalar value.
func (d *Doc) PutScalar(obj ObjID, key string, v any) error {
	val, err := Scalar(v)
	if err != nil {
		return err
	}
	if _, err := d.obj(obj, KindMap); err != nil {
		return err
	}
	return d.record(Op{Type: OpSet, TS: d.nextTS(), Obj: obj, Key: key, Val: val})
}

// Delete removes key from map obj.
func (d *Doc) Delete(obj ObjID, key string) error {
	if _, err := d.obj(obj, KindMap); err != nil {
		return err
	}
	return d.record(Op{Type: OpDel, TS: d.nextTS(), Obj: obj, Key: key})
}

// PutNewMap creates a nested map under key and returns its ID.
func (d *Doc) PutNewMap(obj ObjID, key string) (ObjID, error) {
	return d.putNew(obj, key, KindMap)
}

// PutNewList creates a nested list under key and returns its ID.
func (d *Doc) PutNewList(obj ObjID, key string) (ObjID, error) {
	return d.putNew(obj, key, KindList)
}

// PutNewCounter creates a nested counter under key and returns its ID.
func (d *Doc) PutNewCounter(obj ObjID, key string) (ObjID, error) {
	return d.putNew(obj, key, KindCounter)
}

func (d *Doc) putNew(obj ObjID, key string, kind ObjKind) (ObjID, error) {
	if _, err := d.obj(obj, KindMap); err != nil {
		return "", err
	}
	ts := d.nextTS()
	id := ObjID(ts.String())
	if err := d.record(Op{Type: OpMake, TS: ts, Kind: kind}); err != nil {
		return "", err
	}
	if err := d.record(Op{Type: OpSet, TS: d.nextTS(), Obj: obj, Key: key, Val: ObjRef(id)}); err != nil {
		return "", err
	}
	return id, nil
}

// ListInsert inserts a Go scalar at the given visible index (0 ≤ i ≤ Len).
func (d *Doc) ListInsert(obj ObjID, index int, v any) error {
	val, err := Scalar(v)
	if err != nil {
		return err
	}
	o, err := d.obj(obj, KindList)
	if err != nil {
		return err
	}
	after, err := anchorFor(o, index)
	if err != nil {
		return err
	}
	return d.record(Op{Type: OpInsert, TS: d.nextTS(), Obj: obj, Elem: after, Val: val})
}

// anchorFor maps a visible insertion index to the RGA anchor element ID
// ("" for head).
func anchorFor(o *object, index int) (string, error) {
	vis := o.visible()
	if index < 0 || index > len(vis) {
		return "", fmt.Errorf("crdt: list index %d out of range [0,%d]", index, len(vis))
	}
	if index == 0 {
		return "", nil
	}
	return o.elems[vis[index-1]].id, nil
}

// ListSet overwrites the visible element at index.
func (d *Doc) ListSet(obj ObjID, index int, v any) error {
	val, err := Scalar(v)
	if err != nil {
		return err
	}
	o, err := d.obj(obj, KindList)
	if err != nil {
		return err
	}
	vis := o.visible()
	if index < 0 || index >= len(vis) {
		return fmt.Errorf("crdt: list index %d out of range [0,%d)", index, len(vis))
	}
	return d.record(Op{Type: OpUpdate, TS: d.nextTS(), Obj: obj, Elem: o.elems[vis[index]].id, Val: val})
}

// ListDelete tombstones the visible element at index.
func (d *Doc) ListDelete(obj ObjID, index int) error {
	o, err := d.obj(obj, KindList)
	if err != nil {
		return err
	}
	vis := o.visible()
	if index < 0 || index >= len(vis) {
		return fmt.Errorf("crdt: list index %d out of range [0,%d)", index, len(vis))
	}
	return d.record(Op{Type: OpRemove, TS: d.nextTS(), Obj: obj, Elem: o.elems[vis[index]].id})
}

// ListAppend appends a Go scalar to the list.
func (d *Doc) ListAppend(obj ObjID, v any) error {
	o, err := d.obj(obj, KindList)
	if err != nil {
		return err
	}
	return d.ListInsert(obj, len(o.visible()), v)
}

// CounterAdd adds delta to a counter object.
func (d *Doc) CounterAdd(obj ObjID, delta int64) error {
	if _, err := d.obj(obj, KindCounter); err != nil {
		return err
	}
	return d.record(Op{Type: OpAdd, TS: d.nextTS(), Obj: obj, Delta: delta})
}

// PutGo stores an arbitrary Go value (scalars, map[string]any, []any,
// nested combinations) under key, creating nested CRDT objects as needed.
// This is what the generated CRDT-JSON wiring calls to mirror a global
// variable's state.
func (d *Doc) PutGo(obj ObjID, key string, v any) error {
	switch x := v.(type) {
	case map[string]any:
		id, err := d.PutNewMap(obj, key)
		if err != nil {
			return err
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := d.PutGo(id, k, x[k]); err != nil {
				return err
			}
		}
		return nil
	case []any:
		id, err := d.PutNewList(obj, key)
		if err != nil {
			return err
		}
		for _, el := range x {
			switch el.(type) {
			case map[string]any, []any:
				return fmt.Errorf("crdt: nested composite list elements are not supported")
			}
			if err := d.ListAppend(id, el); err != nil {
				return err
			}
		}
		return nil
	default:
		return d.PutScalar(obj, key, v)
	}
}

// ---- Read API ----

// MapGet returns the live value at key in map obj.
func (d *Doc) MapGet(obj ObjID, key string) (Value, bool) {
	o, err := d.obj(obj, KindMap)
	if err != nil {
		return Value{}, false
	}
	e, ok := o.entries[key]
	if !ok || e.deleted {
		return Value{}, false
	}
	return e.val, true
}

// MapKeys returns the live keys of map obj in sorted order.
func (d *Doc) MapKeys(obj ObjID) []string {
	o, err := d.obj(obj, KindMap)
	if err != nil {
		return nil
	}
	keys := make([]string, 0, len(o.entries))
	for k, e := range o.entries {
		if !e.deleted {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// ListLen returns the number of visible elements of list obj.
func (d *Doc) ListLen(obj ObjID) int {
	o, err := d.obj(obj, KindList)
	if err != nil {
		return 0
	}
	return len(o.visible())
}

// ListGet returns the visible element at index.
func (d *Doc) ListGet(obj ObjID, index int) (Value, bool) {
	o, err := d.obj(obj, KindList)
	if err != nil {
		return Value{}, false
	}
	vis := o.visible()
	if index < 0 || index >= len(vis) {
		return Value{}, false
	}
	return o.elems[vis[index]].val, true
}

// CounterValue returns the current sum of counter obj.
func (d *Doc) CounterValue(obj ObjID) int64 {
	o, err := d.obj(obj, KindCounter)
	if err != nil {
		return 0
	}
	var sum int64
	for _, v := range o.sums {
		sum += v
	}
	return sum
}

// Parent returns the map and key an object was created under. ok is
// false for the root and for objects the document does not hold.
func (d *Doc) Parent(id ObjID) (parent ObjID, key string, ok bool) {
	o := d.objs[id]
	if o == nil || o.parent == "" {
		return "", "", false
	}
	return o.parent, o.key, true
}

// Kind returns the kind of an object, or 0 if it does not exist.
func (d *Doc) Kind(id ObjID) ObjKind {
	o, ok := d.objs[id]
	if !ok {
		return 0
	}
	return o.kind
}

// Materialize converts an object subtree to plain Go values: maps become
// map[string]any, lists []any, counters int64, scalars their Go forms.
func (d *Doc) Materialize(id ObjID) (any, error) {
	o, ok := d.objs[id]
	if !ok {
		return nil, fmt.Errorf("crdt: materialize %q: %w", id, ErrNoObject)
	}
	switch o.kind {
	case KindMap:
		m := make(map[string]any, len(o.entries))
		for k, e := range o.entries {
			if e.deleted {
				continue
			}
			v, err := d.materializeValue(e.val)
			if err != nil {
				return nil, err
			}
			m[k] = v
		}
		return m, nil
	case KindList:
		vis := o.visible()
		lst := make([]any, 0, len(vis))
		for _, i := range vis {
			v, err := d.materializeValue(o.elems[i].val)
			if err != nil {
				return nil, err
			}
			lst = append(lst, v)
		}
		return lst, nil
	case KindCounter:
		return d.CounterValue(id), nil
	default:
		return nil, fmt.Errorf("crdt: materialize: unknown kind %v", o.kind)
	}
}

func (d *Doc) materializeValue(v Value) (any, error) {
	if v.Kind == ValObj {
		return d.Materialize(v.Obj)
	}
	return v.ToGo(), nil
}

// ToGo materializes the whole document from the root.
func (d *Doc) ToGo() map[string]any {
	v, err := d.Materialize(RootObj)
	if err != nil {
		// The root always exists and local state is well-formed by
		// construction; an error here means internal corruption.
		panic(err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		panic("crdt: root is not a map")
	}
	return m
}

// Fork returns a new document with the given actor ID holding the same
// state and history. This is the paper's "initialize replicas with the
// same snapshot" step.
func (d *Doc) Fork(actor ActorID) (*Doc, error) {
	d.Commit("")
	if len(d.compacted) > 0 {
		return nil, fmt.Errorf("%w: cannot fork from a truncated log", ErrCompacted)
	}
	nd := NewDoc(actor)
	if _, err := nd.ApplyChanges(d.history); err != nil {
		return nil, fmt.Errorf("crdt: fork: %w", err)
	}
	nd.seq = nd.vv[actor] // resume numbering if forking as an existing actor
	return nd, nil
}

// Save serializes the document as its change history. A compacted
// document cannot be saved this way — the dropped changes are gone —
// so Save errors; obtain a snapshot from a replica holding full history.
func (d *Doc) Save() ([]byte, error) {
	d.Commit("")
	if len(d.compacted) > 0 {
		return nil, fmt.Errorf("%w: cannot serialize a truncated log", ErrCompacted)
	}
	return EncodeChanges(d.history)
}

// Load reconstructs a document for the given actor from a Save snapshot.
// This is the paper's initialize API.
func Load(actor ActorID, data []byte) (*Doc, error) {
	chs, err := DecodeChanges(data)
	if err != nil {
		return nil, err
	}
	return LoadChanges(actor, chs)
}

// LoadChanges reconstructs a document for the given actor from an
// already-decoded change log — the recovery path the durable WAL uses
// after replaying its frames. Every change's dependencies must be
// satisfiable from within the log.
func LoadChanges(actor ActorID, chs []Change) (*Doc, error) {
	d := NewDoc(actor)
	if _, err := d.ApplyChanges(chs); err != nil {
		return nil, fmt.Errorf("crdt: load: %w", err)
	}
	if d.Parked() > 0 {
		return nil, fmt.Errorf("crdt: load: %d changes have unsatisfied dependencies", d.Parked())
	}
	d.seq = d.vv[actor] // resume numbering if loading as an existing actor
	return d, nil
}
