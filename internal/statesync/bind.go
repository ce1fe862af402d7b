package statesync

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/crdt"
	"repro/internal/httpapp"
	"repro/internal/obs"
	"repro/internal/script"
	"repro/internal/sqldb"
	"repro/internal/vfs"
)

// Binding connects a live service instance to its replicated state —
// the role of the CRDT templates the paper's transformation weaves into
// the identified statements. Outbound: committed SQL mutations, file
// writes, and global-variable changes are mirrored into the CRDT
// components. Inbound: remote changes are pushed into the running
// database, filesystem, and interpreter (with hooks muted so inbound
// state is not echoed back out).
type Binding struct {
	app   *httpapp.App
	state *ReplicaState
	units analysis.StateUnits

	trackedTables map[string]bool
	trackedFiles  bool
	lastGlobals   map[string]any

	// errMu guards the outbound-mirror failure record. The mutation
	// hooks run synchronously under the app's db/fs locks but may fire
	// from both the invocation path and test harnesses, so the record
	// keeps its own lock.
	errMu       sync.Mutex
	applyErrors int64
	firstErr    error
	// applyErrCounter mirrors failures into an observability registry
	// (nil-safe no-op until SetObs).
	applyErrCounter *obs.Counter
}

// SetObs mirrors the binding's outbound mutation-apply failures into
// the registry as the "statesync.bind.apply_errors.<node>" counter (see
// OBSERVABILITY.md). A nil Obs disables mirroring.
func (b *Binding) SetObs(o *obs.Obs, node string) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	b.applyErrCounter = o.Counter("statesync.bind.apply_errors." + node)
}

// noteApplyErr records one failed outbound mirror operation: the first
// error is kept verbatim (later ones are usually the same root cause),
// and every failure bumps the count and the registry counter. A replica
// whose app DB diverged from its CRDT state is no longer silent.
func (b *Binding) noteApplyErr(err error) {
	if err == nil {
		return
	}
	b.errMu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.applyErrors++
	c := b.applyErrCounter
	b.errMu.Unlock()
	c.Add(1)
}

// ApplyErrors reports how many outbound mutation mirrors have failed
// since Bind, along with the first failure (nil when none). Mutations
// that fail to mirror are lost to the CRDT components — a nonzero count
// means this replica's app state may have diverged from what it
// replicates.
func (b *Binding) ApplyErrors() (int64, error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.applyErrors, b.firstErr
}

// Bind wires the app to the replicated state, seeding the CRDT
// components from the app's current contents for the tracked units.
// Use it on the cloud master, whose app holds the authoritative state.
func Bind(app *httpapp.App, state *ReplicaState, units analysis.StateUnits) (*Binding, error) {
	return bind(app, state, units, true)
}

// BindReplica wires an edge replica to state forked from the cloud
// snapshot: instead of seeding the CRDT from the (empty) replica app, it
// pushes the snapshot state into the app — the paper's "each edge node
// initializes its CRDT data structure with a passed state snapshot".
func BindReplica(app *httpapp.App, state *ReplicaState, units analysis.StateUnits) (*Binding, error) {
	return bind(app, state, units, false)
}

func bind(app *httpapp.App, state *ReplicaState, units analysis.StateUnits, seed bool) (*Binding, error) {
	b := &Binding{
		app:           app,
		state:         state,
		units:         units,
		trackedTables: map[string]bool{},
		lastGlobals:   map[string]any{},
	}
	for _, t := range units.Tables {
		b.trackedTables[t] = true
	}
	b.trackedFiles = len(units.Files) > 0 || len(units.FileStmts) > 0

	app.DB().OnMutation(func(m sqldb.Mutation) {
		if !b.trackedTables[m.Table] {
			return
		}
		// Mirror the committed row change into CRDT-Table. A failure at
		// any step loses the mutation for replication, so it must be
		// recorded — a silently dropped mirror diverges the replica from
		// its app DB with zero signal.
		if err := b.state.Tables.EnsureTable(m.Table); err != nil {
			b.noteApplyErr(fmt.Errorf("statesync: bind: ensure table %q: %w", m.Table, err))
			return
		}
		switch m.Kind {
		case sqldb.MutDelete:
			if err := b.state.Tables.DeleteRow(m.Table, m.Key); err != nil {
				b.noteApplyErr(fmt.Errorf("statesync: bind: delete %s/%s: %w", m.Table, m.Key, err))
			}
		default:
			if err := b.state.Tables.UpsertRow(m.Table, m.Key, normalizeCols(m.Cols)); err != nil {
				b.noteApplyErr(fmt.Errorf("statesync: bind: upsert %s/%s: %w", m.Table, m.Key, err))
			}
		}
	})
	app.FS().OnMutation(func(a vfs.Access) {
		if !b.trackedFiles {
			return
		}
		switch a.Kind {
		case vfs.AccessWrite:
			// a.Content carries the written bytes; the hook must not
			// call back into the locked filesystem.
			if err := b.state.Files.Write(a.Path, a.Content); err != nil {
				b.noteApplyErr(fmt.Errorf("statesync: bind: file write %q: %w", a.Path, err))
			}
		case vfs.AccessRemove:
			if err := b.state.Files.Remove(a.Path); err != nil {
				b.noteApplyErr(fmt.Errorf("statesync: bind: file remove %q: %w", a.Path, err))
			}
		}
	})
	if seed {
		// Seed: current table rows, files, and globals.
		if err := b.seed(); err != nil {
			return nil, err
		}
		return b, nil
	}
	// Replica path: load the snapshot state into the app.
	if err := b.pushIntoApp(b.everything()); err != nil {
		return nil, err
	}
	return b, nil
}

// normalizeCols converts sqldb values to CRDT scalars.
func normalizeCols(cols map[string]any) map[string]any {
	out := make(map[string]any, len(cols))
	for k, v := range cols {
		if i, ok := v.(int64); ok {
			out[k] = float64(i)
			continue
		}
		out[k] = v
	}
	return out
}

func (b *Binding) seed() error {
	db := b.app.DB()
	names := db.TableNames()
	for _, name := range names {
		if !b.trackedTables[name] {
			continue
		}
		if err := b.state.Tables.EnsureTable(name); err != nil {
			return err
		}
	}
	// Rows are keyed exactly as the mutation hooks key them, so a later
	// UPDATE or DELETE mirrors onto the seeded row, never beside it.
	for _, name := range names {
		if !b.trackedTables[name] {
			continue
		}
		keys, rows, err := db.KeyRows(name)
		if err != nil {
			return err
		}
		for i, row := range rows {
			if err := b.state.Tables.UpsertRow(name, keys[i], normalizeCols(row)); err != nil {
				return err
			}
		}
	}
	if b.trackedFiles {
		for _, p := range b.app.FS().List("") {
			content, err := b.app.FS().Read(p)
			if err != nil {
				continue
			}
			if err := b.state.Files.Write(p, content); err != nil {
				return err
			}
		}
	}
	return b.MirrorGlobals()
}

// MirrorGlobals copies changed tracked globals into CRDT-JSON. The
// replica runtime calls it after every service invocation — the analog
// of the generated set-accessor instrumentation.
func (b *Binding) MirrorGlobals() error {
	for _, name := range b.units.GlobalsToSync() {
		cur, ok := b.app.Interp().GetGlobal(name)
		if !ok {
			continue
		}
		if prev, seen := b.lastGlobals[name]; seen && script.Equal(prev, cur) {
			continue
		}
		b.lastGlobals[name] = script.DeepCopy(cur)
		if err := putGlobal(b.state, name, cur); err != nil {
			return err
		}
	}
	return nil
}

func putGlobal(state *ReplicaState, name string, v any) error {
	return state.JSON.PutGo("root", "g:"+name, goValue(v))
}

// ApplyRemote integrates a delta and pushes the resulting state into the
// running app, with mutation hooks muted.
func (b *Binding) ApplyRemote(d Delta) error {
	_, err := b.ApplyRemoteCount(d)
	return err
}

// ApplyRemoteCount is ApplyRemote reporting how many changes the CRDT
// layer actually integrated (duplicates are ignored and not counted).
// Only what the integrated changes touched is written into the app, so
// the cost follows the delta, not the size of the replicated state.
func (b *Binding) ApplyRemoteCount(d Delta) (int, error) {
	var t touched
	n, err := b.state.ApplyFunc(d, func(comp string, ch crdt.Change) { b.note(&t, comp, ch) })
	// Push even after a failed apply: whatever was integrated before the
	// failure must still reach the app.
	if perr := b.pushIntoApp(&t); err == nil {
		err = perr
	}
	return n, err
}

// touched is what a batch of integrated changes may have altered in the
// app: rows by table, tables to reconcile in full, file paths, and
// global names.
type touched struct {
	rows    map[string]map[string]bool
	tables  map[string]bool
	files   map[string]bool
	globals map[string]bool
}

func mark(set *map[string]bool, k string) {
	if *set == nil {
		*set = map[string]bool{}
	}
	(*set)[k] = true
}

// note maps one integrated change's ops to what they may have altered.
func (b *Binding) note(t *touched, comp string, ch crdt.Change) {
	for _, op := range ch.Ops {
		switch comp {
		case CompTables:
			ref, ok := b.state.Tables.RowOf(op)
			if !ok || !b.trackedTables[ref.Table] {
				continue
			}
			if ref.Key == "" {
				mark(&t.tables, ref.Table)
				continue
			}
			if t.rows == nil {
				t.rows = map[string]map[string]bool{}
			}
			keys := t.rows[ref.Table]
			mark(&keys, ref.Key)
			t.rows[ref.Table] = keys
		case CompFiles:
			if p, ok := b.state.Files.PathOf(op); ok && b.trackedFiles {
				mark(&t.files, p)
			}
		case CompJSON:
			if name, ok := globalOf(b.state.JSON, op); ok {
				mark(&t.globals, name)
			}
		}
	}
}

// globalOf maps a CRDT-JSON op to the global it may have changed by
// climbing from the op's object to its root slot, "g:<name>".
func globalOf(doc *crdt.Doc, op crdt.Op) (string, bool) {
	obj, key := op.Obj, op.Key
	for obj != crdt.RootObj {
		p, k, ok := doc.Parent(obj)
		if !ok {
			return "", false
		}
		obj, key = p, k
	}
	return strings.CutPrefix(key, "g:")
}

// everything marks all of the replicated state as touched — the initial
// push of a snapshot into a replica app.
func (b *Binding) everything() *touched {
	t := &touched{}
	for _, name := range b.state.Tables.TableNames() {
		if b.trackedTables[name] {
			mark(&t.tables, name)
		}
	}
	if b.trackedFiles {
		for _, p := range b.state.Files.Paths() {
			mark(&t.files, p)
		}
	}
	for _, name := range b.units.GlobalsToSync() {
		mark(&t.globals, name)
	}
	return t
}

// pushIntoApp writes the touched part of the CRDT state into the live
// database, filesystem and interpreter globals, with mutation hooks
// muted.
func (b *Binding) pushIntoApp(t *touched) error {
	db := b.app.DB()
	db.SetMuted(true)
	defer db.SetMuted(false)
	fs := b.app.FS()
	fs.SetMuted(true)
	defer fs.SetMuted(false)

	// Every tracked table is written, touched or not: a write without
	// rows still restores ascending key order after local inserts, the
	// scan order replicas agree on after an apply.
	for name := range b.trackedTables {
		if !b.state.Tables.HasTable(name) {
			continue
		}
		if err := b.writeTable(name, t.tables[name], t.rows[name]); err != nil {
			return err
		}
	}
	for p := range t.files {
		content, ok := b.state.Files.Read(p)
		if !ok {
			if fs.Exists(p) {
				if err := fs.Remove(p); err != nil {
					return err
				}
			}
			continue
		}
		if cur, err := fs.Read(p); err == nil && string(cur) == string(content) {
			continue
		}
		if err := fs.Write(p, content); err != nil {
			return err
		}
	}
	for _, name := range b.units.GlobalsToSync() {
		if !t.globals[name] {
			continue
		}
		v, ok := b.state.JSON.MapGet("root", "g:"+name)
		if !ok {
			continue
		}
		var sv any
		if v.Kind == crdt.ValObj { // materialize the nested object
			m, err := b.state.JSON.Materialize(v.Obj)
			if err != nil {
				return err
			}
			sv = scriptValue(m)
		} else {
			sv = scriptValue(v.ToGo())
		}
		b.app.Interp().SetGlobal(name, sv)
		b.lastGlobals[name] = script.DeepCopy(sv)
	}
	return nil
}

// writeTable writes one table's touched rows by key: each key takes its
// CRDT row, or is deleted when the CRDT no longer holds one. whole
// reconciles every key either side holds. A table missing from the
// database is created first (keyed on "id") and then filled in full.
func (b *Binding) writeTable(name string, whole bool, keys map[string]bool) error {
	db := b.app.DB()
	if _, err := db.RowCount(name); errors.Is(err, sqldb.ErrNoTable) {
		if _, err := db.Exec("CREATE TABLE " + name + " (id INT PRIMARY KEY)"); err != nil {
			return err
		}
		whole = true
	}
	if whole {
		dbKeys, _, err := db.KeyRows(name)
		if err != nil {
			return err
		}
		keys = make(map[string]bool, len(dbKeys))
		for _, k := range dbKeys {
			keys[k] = true
		}
		for _, k := range b.state.Tables.RowKeys(name) {
			keys[k] = true
		}
	}
	rows := make(map[string]sqldb.Row, len(keys))
	for k := range keys {
		row, _ := b.state.Tables.Row(name, k)
		rows[k] = row
	}
	return db.WriteRows(name, rows)
}
