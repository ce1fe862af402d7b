package crdt

import (
	"fmt"
	"sort"
)

// Table is the paper's CRDT-Table: replicated relational state. Each
// table is a map of rows keyed by primary key; each row is a map of
// column values resolved last-writer-wins per cell. The transformation
// rewrites the SQL statements it identified in the service into calls on
// this type.
//
// Structural containers (the tables themselves) must be created on the
// master before replicas are forked from its snapshot, mirroring how
// EdgStr initializes every replica from the same cloud snapshot. Rows and
// cells may then be mutated concurrently at any replica.
type Table struct {
	doc    *Doc
	tables ObjID
}

const tablesKey = "tables"

// NewTable returns an empty replicated table store for the given actor.
func NewTable(actor ActorID) (*Table, error) {
	doc := NewDoc(actor)
	id, err := doc.PutNewMap(RootObj, tablesKey)
	if err != nil {
		return nil, err
	}
	return &Table{doc: doc, tables: id}, nil
}

// TableFromDoc wraps an existing document (e.g. one produced by Fork or
// Load) as a table store.
func TableFromDoc(doc *Doc) (*Table, error) {
	v, ok := doc.MapGet(RootObj, tablesKey)
	if !ok || v.Kind != ValObj {
		return nil, fmt.Errorf("crdt: document has no %q container", tablesKey)
	}
	return &Table{doc: doc, tables: v.Obj}, nil
}

// Doc exposes the underlying document for synchronization.
func (t *Table) Doc() *Doc { return t.doc }

// Fork snapshots the store for a new replica actor.
func (t *Table) Fork(actor ActorID) (*Table, error) {
	nd, err := t.doc.Fork(actor)
	if err != nil {
		return nil, err
	}
	return TableFromDoc(nd)
}

// EnsureTable creates the named table if it does not exist.
func (t *Table) EnsureTable(name string) error {
	if _, ok := t.doc.MapGet(t.tables, name); ok {
		return nil
	}
	_, err := t.doc.PutNewMap(t.tables, name)
	return err
}

// tableObj returns the object ID of the named table.
func (t *Table) tableObj(name string) (ObjID, error) {
	v, ok := t.doc.MapGet(t.tables, name)
	if !ok || v.Kind != ValObj {
		return "", fmt.Errorf("crdt: table %q does not exist", name)
	}
	return v.Obj, nil
}

// HasTable reports whether the named table exists.
func (t *Table) HasTable(name string) bool {
	_, err := t.tableObj(name)
	return err == nil
}

// RowRef names the row an integrated op may have changed. An empty Key
// stands for every row of the table: the op wrote the table's own slot,
// so the table may now resolve to a different container.
type RowRef struct {
	Table, Key string
}

// RowOf maps an op of an integrated change to the row it may have
// changed: a set or delete on the tables container names a whole table,
// one on a table object names the row under that key, and a cell write
// on a row object names the row the object was created as — even when
// that object lost a concurrent insert of the same key. Other ops (object
// creation) change no visible row and report ok=false.
func (t *Table) RowOf(op Op) (RowRef, bool) {
	if op.Type != OpSet && op.Type != OpDel {
		return RowRef{}, false
	}
	if op.Obj == t.tables {
		return RowRef{Table: op.Key}, true
	}
	parent, key, ok := t.doc.Parent(op.Obj)
	if !ok {
		return RowRef{}, false
	}
	if parent == t.tables {
		return RowRef{Table: key, Key: op.Key}, true
	}
	grand, table, ok := t.doc.Parent(parent)
	if !ok || grand != t.tables {
		return RowRef{}, false
	}
	return RowRef{Table: table, Key: key}, true
}

// TableNames returns the existing table names, sorted.
func (t *Table) TableNames() []string { return t.doc.MapKeys(t.tables) }

// UpsertRow writes the given columns of row key in the named table,
// creating the row as needed. Only the provided columns are touched.
func (t *Table) UpsertRow(table, key string, cols map[string]any) error {
	tid, err := t.tableObj(table)
	if err != nil {
		return err
	}
	var rid ObjID
	if v, ok := t.doc.MapGet(tid, key); ok && v.Kind == ValObj {
		rid = v.Obj
	} else {
		rid, err = t.doc.PutNewMap(tid, key)
		if err != nil {
			return err
		}
	}
	names := make([]string, 0, len(cols))
	for c := range cols {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		if err := t.doc.PutScalar(rid, c, cols[c]); err != nil {
			return fmt.Errorf("crdt: column %q: %w", c, err)
		}
	}
	return nil
}

// DeleteRow removes row key from the named table.
func (t *Table) DeleteRow(table, key string) error {
	tid, err := t.tableObj(table)
	if err != nil {
		return err
	}
	if _, ok := t.doc.MapGet(tid, key); !ok {
		return nil
	}
	return t.doc.Delete(tid, key)
}

// Row returns the named row's columns as Go scalars.
func (t *Table) Row(table, key string) (map[string]any, bool) {
	tid, err := t.tableObj(table)
	if err != nil {
		return nil, false
	}
	v, ok := t.doc.MapGet(tid, key)
	if !ok || v.Kind != ValObj {
		return nil, false
	}
	m, err := t.doc.Materialize(v.Obj)
	if err != nil {
		return nil, false
	}
	row, ok := m.(map[string]any)
	return row, ok
}

// RowKeys returns the primary keys of the named table, sorted.
func (t *Table) RowKeys(table string) []string {
	tid, err := t.tableObj(table)
	if err != nil {
		return nil
	}
	return t.doc.MapKeys(tid)
}

// Rows returns every row of the named table ordered by primary key.
func (t *Table) Rows(table string) []map[string]any {
	keys := t.RowKeys(table)
	rows := make([]map[string]any, 0, len(keys))
	for _, k := range keys {
		if row, ok := t.Row(table, k); ok {
			rows = append(rows, row)
		}
	}
	return rows
}

// GetChanges returns the changes a peer with version vector since is
// missing.
func (t *Table) GetChanges(since VersionVector) []Change { return t.doc.GetChanges(since) }

// ApplyChanges integrates changes from a peer.
func (t *Table) ApplyChanges(chs []Change) (int, error) { return t.doc.ApplyChanges(chs) }

// Heads returns the store's version vector.
func (t *Table) Heads() VersionVector { return t.doc.Heads() }
