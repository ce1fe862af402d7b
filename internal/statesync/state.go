// Package statesync implements EdgStr's replica synchronization runtime
// (paper §III-F/G): each replica holds its service state in three CRDT
// components — CRDT-JSON for global variables, CRDT-Table for database
// rows, CRDT-Files for files — and exchanges change batches with the
// cloud master over bidirectional links (the socket.io analog). The
// cloud periodically pushes cloud_state messages to every edge node,
// and each edge pushes edge_state messages back; replicas converge to
// the same state, tolerating temporary divergence.
package statesync

import (
	"encoding/json"
	"fmt"

	"repro/internal/crdt"
	"repro/internal/script"
)

// Component names of the replicated state.
const (
	CompJSON   = "json"
	CompTables = "tables"
	CompFiles  = "files"
)

// Heads summarizes a replica's knowledge per component.
type Heads map[string]crdt.VersionVector

// Delta is a change batch per component — the payload of a cloud_state
// or edge_state message.
type Delta map[string][]crdt.Change

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool {
	for _, chs := range d {
		if len(chs) > 0 {
			return false
		}
	}
	return true
}

// Changes returns the total change count.
func (d Delta) Changes() int {
	n := 0
	for _, chs := range d {
		n += len(chs)
	}
	return n
}

// EncodeDelta serializes a delta; its length is the message's wire size.
func EncodeDelta(d Delta) ([]byte, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("statesync: encoding delta: %w", err)
	}
	return b, nil
}

// DecodeDelta reverses EncodeDelta.
func DecodeDelta(b []byte) (Delta, error) {
	var d Delta
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("statesync: decoding delta: %w", err)
	}
	return d, nil
}

// ReplicaState bundles the three CRDT components of one replica.
type ReplicaState struct {
	JSON   *crdt.Doc
	Tables *crdt.Table
	Files  *crdt.Files
}

// NewReplicaState returns empty components owned by the given actor.
func NewReplicaState(actor crdt.ActorID) (*ReplicaState, error) {
	tables, err := crdt.NewTable(actor + "/t")
	if err != nil {
		return nil, err
	}
	files, err := crdt.NewFiles(actor + "/f")
	if err != nil {
		return nil, err
	}
	return &ReplicaState{
		JSON:   crdt.NewDoc(actor + "/j"),
		Tables: tables,
		Files:  files,
	}, nil
}

// Fork snapshots the state for a new replica actor — the paper's
// "initialize both the master and the replicas with the same snapshot".
func (s *ReplicaState) Fork(actor crdt.ActorID) (*ReplicaState, error) {
	j, err := s.JSON.Fork(actor + "/j")
	if err != nil {
		return nil, err
	}
	t, err := s.Tables.Fork(actor + "/t")
	if err != nil {
		return nil, err
	}
	f, err := s.Files.Fork(actor + "/f")
	if err != nil {
		return nil, err
	}
	return &ReplicaState{JSON: j, Tables: t, Files: f}, nil
}

// Heads returns the per-component version vectors.
func (s *ReplicaState) Heads() Heads {
	return Heads{
		CompJSON:   s.JSON.Heads(),
		CompTables: s.Tables.Heads(),
		CompFiles:  s.Files.Heads(),
	}
}

// Version sums the components' replica-local mutation counters. Equal
// readings bracket a window with no state change — the synchronization
// runtime's cheap idle test (one comparison, no history walk).
func (s *ReplicaState) Version() uint64 {
	return s.JSON.Version() + s.Tables.Doc().Version() + s.Files.Doc().Version()
}

// Delta returns the changes a peer at the given heads is missing.
func (s *ReplicaState) Delta(since Heads) Delta {
	if since == nil {
		since = Heads{}
	}
	return Delta{
		CompJSON:   s.JSON.GetChanges(since[CompJSON]),
		CompTables: s.Tables.GetChanges(since[CompTables]),
		CompFiles:  s.Files.GetChanges(since[CompFiles]),
	}
}

// Apply integrates a delta received from a peer.
func (s *ReplicaState) Apply(d Delta) error {
	_, err := s.ApplyCount(d)
	return err
}

// ApplyCount integrates a delta and reports how many changes were
// actually applied. The CRDT layer ignores changes the replica already
// holds, so a count below d.Changes() means the peer resent known
// operations — the transport's duplicate-free re-handshake tests pin
// the two equal.
func (s *ReplicaState) ApplyCount(d Delta) (int, error) {
	return s.ApplyFunc(d, nil)
}

// ApplyFunc is ApplyCount calling integrated (when non-nil) with each
// change the CRDT layer integrated and the component it belongs to —
// the input the binding derives touched rows, files and globals from.
func (s *ReplicaState) ApplyFunc(d Delta, integrated func(comp string, ch crdt.Change)) (int, error) {
	visit := func(comp string) func(crdt.Change) {
		if integrated == nil {
			return nil
		}
		return func(ch crdt.Change) { integrated(comp, ch) }
	}
	nj, err := s.JSON.ApplyChangesFunc(d[CompJSON], visit(CompJSON))
	if err != nil {
		return nj, fmt.Errorf("statesync: json: %w", err)
	}
	nt, err := s.Tables.Doc().ApplyChangesFunc(d[CompTables], visit(CompTables))
	if err != nil {
		return nj + nt, fmt.Errorf("statesync: tables: %w", err)
	}
	nf, err := s.Files.Doc().ApplyChangesFunc(d[CompFiles], visit(CompFiles))
	if err != nil {
		return nj + nt + nf, fmt.Errorf("statesync: files: %w", err)
	}
	return nj + nt + nf, nil
}

// advanceHeads merges a received delta's change positions into a
// peer-knowledge summary, mutating and returning h (allocating when
// nil). Operations a peer shipped to us are by definition already known
// to that peer, so the transport advances its send cursor past them on
// receive — otherwise the next push would echo the peer's own changes
// straight back at it.
func advanceHeads(h Heads, d Delta) Heads {
	if h == nil {
		h = Heads{}
	}
	for comp, chs := range d {
		vv := h[comp]
		if vv == nil {
			vv = crdt.VersionVector{}
			h[comp] = vv
		}
		for _, ch := range chs {
			if ch.Seq > vv[ch.Actor] {
				vv[ch.Actor] = ch.Seq
			}
		}
	}
	return h
}

// Compact truncates each component's change log through the given
// heads (typically the intersection of every peer's acknowledged
// heads). It returns the number of changes dropped. State is unchanged;
// only replay history shrinks.
func (s *ReplicaState) Compact(through Heads) int {
	if through == nil {
		return 0
	}
	return s.JSON.Compact(through[CompJSON]) +
		s.Tables.Doc().Compact(through[CompTables]) +
		s.Files.Doc().Compact(through[CompFiles])
}

// HistoryLen sums the retained change-log lengths across components.
func (s *ReplicaState) HistoryLen() int {
	return s.JSON.HistoryLen() + s.Tables.Doc().HistoryLen() + s.Files.Doc().HistoryLen()
}

// Converged reports whether two replicas have materially identical
// state across all components.
func (s *ReplicaState) Converged(o *ReplicaState) bool {
	if !script.Equal(docGo(s.JSON), docGo(o.JSON)) {
		return false
	}
	for _, name := range union(s.Tables.TableNames(), o.Tables.TableNames()) {
		a, b := s.Tables.Rows(name), o.Tables.Rows(name)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !script.Equal(anyMap(a[i]), anyMap(b[i])) {
				return false
			}
		}
	}
	for _, p := range union(s.Files.Paths(), o.Files.Paths()) {
		ba, oka := s.Files.Read(p)
		bb, okb := o.Files.Read(p)
		if oka != okb || string(ba) != string(bb) {
			return false
		}
	}
	return true
}

func docGo(d *crdt.Doc) any {
	return scriptValue(any(d.ToGo()))
}

func anyMap(m map[string]any) any { return scriptValue(any(m)) }

func union(a, b []string) []string {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		set[x] = true
	}
	out := make([]string, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	return out
}

// scriptValue converts CRDT-materialized Go values ([]any, int64) to the
// script value universe (*script.List, float64) so they can be pushed
// into a running interpreter.
func scriptValue(v any) any {
	switch x := v.(type) {
	case []any:
		lst := script.NewList()
		for _, e := range x {
			lst.Elems = append(lst.Elems, scriptValue(e))
		}
		return lst
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = scriptValue(e)
		}
		return out
	case int64:
		return float64(x)
	default:
		return x
	}
}

// goValue converts script values to forms the CRDT layer stores:
// *script.List becomes []any.
func goValue(v any) any {
	switch x := v.(type) {
	case *script.List:
		out := make([]any, len(x.Elems))
		for i, e := range x.Elems {
			out[i] = goValue(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = goValue(e)
		}
		return out
	default:
		return x
	}
}
