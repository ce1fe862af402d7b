package sqldb

import (
	"errors"
	"reflect"
	"testing"
)

// scanIDs returns the id column of an unordered SELECT, i.e. scan order.
func scanIDs(t *testing.T, db *DB, table string) []any {
	t.Helper()
	var ids []any
	for _, r := range mustExec(t, db, "SELECT * FROM "+table).Rows {
		ids = append(ids, r["id"])
	}
	return ids
}

func TestWriteRowsUpsertsAndDeletesByKey(t *testing.T) {
	db := newBooksDB(t)
	var muts []Mutation
	db.OnMutation(func(m Mutation) { muts = append(muts, m) })
	err := db.WriteRows("books", map[string]Row{
		"2": {"id": 2.0, "title": "TAPL 2e"}, // replaced whole
		"3": nil,                             // deleted
		"9": {"id": 9.0, "title": "new", "cover": []byte("png")},
		"8": nil, // absent: no-op
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, rows, err := db.KeyRows("books")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"1", "2", "9"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	if want := (Row{"id": 2.0, "title": "TAPL 2e"}); !reflect.DeepEqual(rows[1], want) {
		t.Fatalf("row 2 = %v, want %v", rows[1], want)
	}
	kinds := map[string]MutationKind{}
	for _, m := range muts {
		kinds[m.Key] = m.Kind
	}
	if want := map[string]MutationKind{"2": MutUpdate, "3": MutDelete, "9": MutInsert}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("hook saw %v, want %v", kinds, want)
	}

	muts = nil
	db.SetMuted(true)
	if err := db.WriteRows("books", map[string]Row{"1": nil}); err != nil {
		t.Fatal(err)
	}
	db.SetMuted(false)
	if len(muts) != 0 {
		t.Fatalf("muted write emitted %v", muts)
	}
	if err := db.WriteRows("nope", nil); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: err = %v, want ErrNoTable", err)
	}
	if err := db.WriteRows("books", map[string]Row{"5": {"id": struct{}{}}}); err == nil {
		t.Fatal("unsupported value type accepted")
	}
}

// TestWriteRowsRestoresKeyOrder pins the scan-order rule: local inserts
// may append keys out of order, and any WriteRows — even an empty one —
// leaves the table scanning in ascending key order, the order a reload
// of every row in key order gives.
func TestWriteRowsRestoresKeyOrder(t *testing.T) {
	db := newBooksDB(t)
	mustExec(t, db, "INSERT INTO books (id, title) VALUES (0, 'zero')")
	if got, want := scanIDs(t, db, "books"), []any{int64(1), int64(2), int64(3), int64(0)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("before: scan %v, want insertion order %v", got, want)
	}
	if err := db.WriteRows("books", nil); err != nil {
		t.Fatal(err)
	}
	if got, want := scanIDs(t, db, "books"), []any{int64(0), int64(1), int64(2), int64(3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after: scan %v, want key order %v", got, want)
	}
	// A rolled-back transaction restores the pre-transaction order flag
	// along with the rows.
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO books (id, title) VALUES (-1, 'neg')")
	mustExec(t, db, "ROLLBACK")
	if err := db.WriteRows("books", map[string]Row{"4": {"id": 4.0}}); err != nil {
		t.Fatal(err)
	}
	if got, want := scanIDs(t, db, "books"), []any{int64(0), int64(1), int64(2), int64(3), 4.0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after rollback: scan %v, want %v", got, want)
	}
}

// TestWriteRowsReservesSyntheticKeys checks a table without a primary
// key: rows written under "_rowid_N" keys advance the row-ID counter, so
// a later local insert does not reuse one.
func TestWriteRowsReservesSyntheticKeys(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE log (msg TEXT)")
	mustExec(t, db, "INSERT INTO log (msg) VALUES ('local')")
	if err := db.WriteRows("log", map[string]Row{"_rowid_7": {"msg": "remote"}}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "INSERT INTO log (msg) VALUES ('next')")
	if res.LastKey != "_rowid_8" {
		t.Fatalf("insert after a written _rowid_7 got key %q, want _rowid_8", res.LastKey)
	}
	keys, _, err := db.KeyRows("log")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"_rowid_1", "_rowid_7", "_rowid_8"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
}
