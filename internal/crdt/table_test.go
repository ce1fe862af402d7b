package crdt

import (
	"reflect"
	"testing"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("cloud")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnsureTable("books"); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableCRUD(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.UpsertRow("books", "1", map[string]any{"title": "SICP", "stock": 3}); err != nil {
		t.Fatal(err)
	}
	row, ok := tbl.Row("books", "1")
	if !ok {
		t.Fatal("row missing")
	}
	if row["title"] != "SICP" || row["stock"] != 3.0 {
		t.Fatalf("row = %#v", row)
	}
	// Partial update touches only given columns.
	if err := tbl.UpsertRow("books", "1", map[string]any{"stock": 2}); err != nil {
		t.Fatal(err)
	}
	row, _ = tbl.Row("books", "1")
	if row["title"] != "SICP" || row["stock"] != 2.0 {
		t.Fatalf("partial update clobbered row: %#v", row)
	}
	if err := tbl.DeleteRow("books", "1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Row("books", "1"); ok {
		t.Fatal("deleted row still visible")
	}
	// Deleting a missing row is a no-op.
	if err := tbl.DeleteRow("books", "missing"); err != nil {
		t.Fatal(err)
	}
}

func TestTableUnknownTable(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.UpsertRow("nope", "1", nil); err == nil {
		t.Fatal("write to unknown table accepted")
	}
	if _, ok := tbl.Row("nope", "1"); ok {
		t.Fatal("read from unknown table succeeded")
	}
	if keys := tbl.RowKeys("nope"); keys != nil {
		t.Fatal("RowKeys of unknown table non-nil")
	}
}

func TestTableNamesAndRows(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.EnsureTable("authors"); err != nil {
		t.Fatal(err)
	}
	// EnsureTable is idempotent.
	if err := tbl.EnsureTable("authors"); err != nil {
		t.Fatal(err)
	}
	want := []string{"authors", "books"}
	if got := tbl.TableNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TableNames = %v, want %v", got, want)
	}
	for _, k := range []string{"b", "a", "c"} {
		if err := tbl.UpsertRow("books", k, map[string]any{"id": k}); err != nil {
			t.Fatal(err)
		}
	}
	rows := tbl.Rows("books")
	if len(rows) != 3 || rows[0]["id"] != "a" || rows[2]["id"] != "c" {
		t.Fatalf("Rows ordering wrong: %v", rows)
	}
}

func TestTableReplication(t *testing.T) {
	cloud := newTestTable(t)
	if err := cloud.UpsertRow("books", "1", map[string]any{"title": "Go", "stock": 5}); err != nil {
		t.Fatal(err)
	}
	edge, err := cloud.Fork("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent: edge decrements stock, cloud adds a row.
	if err := edge.UpsertRow("books", "1", map[string]any{"stock": 4}); err != nil {
		t.Fatal(err)
	}
	if err := cloud.UpsertRow("books", "2", map[string]any{"title": "CRDTs", "stock": 1}); err != nil {
		t.Fatal(err)
	}
	// Bidirectional sync.
	if _, err := cloud.ApplyChanges(edge.GetChanges(cloud.Heads())); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.ApplyChanges(cloud.GetChanges(edge.Heads())); err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{cloud, edge} {
		row1, _ := tb.Row("books", "1")
		if row1["stock"] != 4.0 {
			t.Fatalf("stock = %v, want 4", row1["stock"])
		}
		if _, ok := tb.Row("books", "2"); !ok {
			t.Fatal("new row not replicated")
		}
	}
	if !reflect.DeepEqual(cloud.Rows("books"), edge.Rows("books")) {
		t.Fatal("tables diverged after sync")
	}
}

func TestTableConcurrentCellWritesConverge(t *testing.T) {
	cloud := newTestTable(t)
	if err := cloud.UpsertRow("books", "1", map[string]any{"stock": 10}); err != nil {
		t.Fatal(err)
	}
	e1, _ := cloud.Fork("e1")
	e2, _ := cloud.Fork("e2")
	if err := e1.UpsertRow("books", "1", map[string]any{"stock": 7}); err != nil {
		t.Fatal(err)
	}
	if err := e2.UpsertRow("books", "1", map[string]any{"stock": 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.ApplyChanges(e2.GetChanges(e1.Heads())); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ApplyChanges(e1.GetChanges(e2.Heads())); err != nil {
		t.Fatal(err)
	}
	r1, _ := e1.Row("books", "1")
	r2, _ := e2.Row("books", "1")
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("cells diverged: %v vs %v", r1, r2)
	}
}

func TestTableFromDocRejectsPlainDoc(t *testing.T) {
	if _, err := TableFromDoc(NewDoc("x")); err == nil {
		t.Fatal("TableFromDoc accepted a doc without tables container")
	}
}

// TestRowOfMapsOpsToRows follows concurrent inserts of one key: every
// op of the merged changes maps to the row it may have changed — cell
// writes on the row object that lost the race included — and object
// creation to nothing.
func TestRowOfMapsOpsToRows(t *testing.T) {
	master := newTestTable(t)
	var replicas []*Table
	for _, actor := range []ActorID{"a", "b", "c"} {
		r, err := master.Fork(actor)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	a, b, c := replicas[0], replicas[1], replicas[2]
	// a and b insert key 7 concurrently, then each writes a cell on its
	// own row object; at c one of those objects loses.
	for _, r := range []*Table{a, b} {
		if err := r.UpsertRow("books", "7", map[string]any{"title": string(r.Doc().Actor())}); err != nil {
			t.Fatal(err)
		}
		r.Doc().Commit("")
		if err := r.UpsertRow("books", "7", map[string]any{"stock": 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.EnsureTable("authors"); err != nil {
		t.Fatal(err)
	}
	want := RowRef{Table: "books", Key: "7"}
	var refs []RowRef
	for _, r := range []*Table{a, b} {
		_, err := c.Doc().ApplyChangesFunc(r.GetChanges(c.Heads()), func(ch Change) {
			for _, op := range ch.Ops {
				if ref, ok := c.RowOf(op); ok {
					refs = append(refs, ref)
				} else if op.Type != OpMake {
					t.Errorf("op %v maps to no row", op)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Per replica: the row slot, the title cell, the stock cell; then
	// b's new table.
	wantRefs := []RowRef{want, want, want, want, want, want, {Table: "authors"}}
	if !reflect.DeepEqual(refs, wantRefs) {
		t.Fatalf("refs = %v, want %v", refs, wantRefs)
	}
	if !c.HasTable("authors") || c.HasTable("missing") {
		t.Fatal("HasTable disagrees with the merged tables")
	}
}
