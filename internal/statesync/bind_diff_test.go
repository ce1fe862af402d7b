package statesync

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/crdt"
	"repro/internal/httpapp"
	"repro/internal/script"
	"repro/internal/sqldb"
	"repro/internal/vfs"
)

// rebuildOracle is the full-state materialization the binding used
// before applies became incremental: every tracked table is emptied
// and refilled in key order through SQL text, every CRDT file is
// rewritten, and every synced global is set. It is kept here as the
// reference the incremental path must match. One deliberate
// difference: files the CRDT no longer holds are removed, which the
// old rebuild never did, leaving remotely removed files behind.
func rebuildOracle(db *sqldb.DB, fs *vfs.FS, setGlobal func(string, any), state *ReplicaState, units analysis.StateUnits) error {
	tracked := map[string]bool{}
	for _, t := range units.Tables {
		tracked[t] = true
	}
	for _, name := range state.Tables.TableNames() {
		if !tracked[name] {
			continue
		}
		if _, err := db.Exec("CREATE TABLE IF NOT EXISTS " + name + " (id INT PRIMARY KEY)"); err != nil {
			return err
		}
		if _, err := db.Exec("DELETE FROM " + name); err != nil {
			return err
		}
		for _, key := range state.Tables.RowKeys(name) {
			row, ok := state.Tables.Row(name, key)
			if !ok {
				continue
			}
			if err := oracleInsertRow(db, name, row); err != nil {
				return err
			}
		}
	}
	if len(units.Files) > 0 || len(units.FileStmts) > 0 {
		for _, p := range fs.List("") {
			if _, ok := state.Files.Read(p); !ok {
				if err := fs.Remove(p); err != nil {
					return err
				}
			}
		}
		for _, p := range state.Files.Paths() {
			content, _ := state.Files.Read(p)
			if err := fs.Write(p, content); err != nil {
				return err
			}
		}
	}
	for _, name := range units.GlobalsToSync() {
		v, ok := state.JSON.MapGet("root", "g:"+name)
		if !ok {
			continue
		}
		if v.Kind == crdt.ValObj {
			m, err := state.JSON.Materialize(v.Obj)
			if err != nil {
				return err
			}
			setGlobal(name, scriptValue(m))
		} else {
			setGlobal(name, scriptValue(v.ToGo()))
		}
	}
	return nil
}

func oracleInsertRow(db *sqldb.DB, table string, row map[string]any) error {
	cols := make([]string, 0, len(row))
	for c := range row {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	placeholders := make([]string, len(cols))
	args := make([]any, len(cols))
	for i, c := range cols {
		placeholders[i] = "?"
		args[i] = row[c]
	}
	q := "INSERT INTO " + table + " (" + strings.Join(cols, ", ") + ") VALUES (" + strings.Join(placeholders, ", ") + ")"
	_, err := db.Exec(q, args...)
	return err
}

const diffSrc = `
var counter = 0
var tags = []any{}

func init() any {
	db.exec("CREATE TABLE items (note TEXT, sku TEXT PRIMARY KEY, qty INT)")
	fs.write("a.txt", "seed")
	return nil
}

func noop(req any, res any) any {
	return nil
}`

func diffUnits() analysis.StateUnits {
	return analysis.StateUnits{
		Tables:       []string{"items", "extra"},
		Files:        []string{"a.txt", "b.txt", "c.txt"},
		Globals:      []string{"counter", "tags"},
		GlobalWrites: []string{"counter", "tags"},
	}
}

type diffReplica struct {
	app   *httpapp.App
	state *ReplicaState
	bind  *Binding
}

// normRows maps rows to comparable form. The rebuild rewrote every row
// from the CRDT, so untouched rows came back with float64 numbers where
// local inserts stored int64; the incremental path leaves those rows
// alone. SQL compares the two forms equal, so the comparison does too.
func normRows(rows []sqldb.Row) []map[string]any {
	out := make([]map[string]any, len(rows))
	for i, r := range rows {
		m := make(map[string]any, len(r))
		for c, v := range r {
			if n, ok := v.(int64); ok {
				v = float64(n)
			}
			m[c] = v
		}
		out[i] = m
	}
	return out
}

// appView is everything a binding materializes, in comparable form:
// per table the canonical dump and the unordered SELECT * (scan order),
// the files, and the synced globals.
type appView struct {
	dump, scan map[string][]map[string]any
	files      map[string]string
	globals    map[string]any
}

func viewOf(t *testing.T, db *sqldb.DB, fs *vfs.FS, global func(string) any, units analysis.StateUnits) appView {
	t.Helper()
	v := appView{dump: map[string][]map[string]any{}, scan: map[string][]map[string]any{}, files: map[string]string{}, globals: map[string]any{}}
	for name, rows := range db.Dump() {
		v.dump[name] = normRows(rows)
		res, err := db.Exec("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		v.scan[name] = normRows(res.Rows)
	}
	for _, p := range fs.List("") {
		b, err := fs.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		v.files[p] = string(b)
	}
	for _, g := range units.GlobalsToSync() {
		v.globals[g] = global(g)
	}
	return v
}

func sameView(a, b appView) bool {
	if !reflect.DeepEqual(a.dump, b.dump) || !reflect.DeepEqual(a.scan, b.scan) || !reflect.DeepEqual(a.files, b.files) {
		return false
	}
	for g, v := range a.globals {
		if !script.Equal(v, b.globals[g]) {
			return false
		}
	}
	return len(a.globals) == len(b.globals)
}

func (r *diffReplica) view(t *testing.T, units analysis.StateUnits) appView {
	return viewOf(t, r.app.DB(), r.app.FS(), func(g string) any {
		v, _ := r.app.Interp().GetGlobal(g)
		return v
	}, units)
}

// applyChecked applies d through the binding and through the oracle on
// a twin of the pre-apply app, and requires the two results to agree.
func applyChecked(t *testing.T, r *diffReplica, d Delta, units analysis.StateUnits, where string) {
	t.Helper()
	twinDB := sqldb.Open()
	twinDB.Restore(r.app.DB().Snapshot())
	twinFS := vfs.New()
	twinFS.Restore(r.app.FS().Snapshot())
	twinGlobals := map[string]any{}
	for _, g := range units.GlobalsToSync() {
		v, _ := r.app.Interp().GetGlobal(g)
		twinGlobals[g] = script.DeepCopy(v)
	}
	if _, err := r.bind.ApplyRemoteCount(d); err != nil {
		t.Fatalf("%s: incremental apply: %v", where, err)
	}
	if err := rebuildOracle(twinDB, twinFS, func(g string, v any) { twinGlobals[g] = v }, r.state, units); err != nil {
		t.Fatalf("%s: oracle: %v", where, err)
	}
	got := r.view(t, units)
	want := viewOf(t, twinDB, twinFS, func(g string) any { return twinGlobals[g] }, units)
	if !sameView(got, want) {
		t.Fatalf("%s: incremental apply diverged from the rebuild\nincremental %+v\nrebuild     %+v", where, got, want)
	}
}

// localStep mutates one replica's app the way served requests do; the
// binding's hooks mirror the change into its CRDT state.
func localStep(t *testing.T, rng *rand.Rand, r *diffReplica, step int) {
	t.Helper()
	db, fs := r.app.DB(), r.app.FS()
	exec := func(q string, args ...any) *sqldb.Result {
		t.Helper()
		res, err := db.Exec(q, args...)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	// A small key space makes concurrent inserts of one key, and deletes
	// racing updates, common.
	sku := fmt.Sprintf("k%d", rng.Intn(6))
	switch rng.Intn(8) {
	case 0, 1, 2:
		if len(exec("SELECT * FROM items WHERE sku = ?", sku).Rows) > 0 {
			exec("UPDATE items SET qty = ?, note = ? WHERE sku = ?", step, fmt.Sprintf("u%d", step), sku)
		} else {
			exec("INSERT INTO items (note, sku, qty) VALUES (?, ?, ?)", fmt.Sprintf("i%d", step), sku, step)
		}
	case 3:
		exec("DELETE FROM items WHERE sku = ?", sku)
	case 4:
		// A second table, created wherever it is first used: concurrent
		// creations race for the table's slot.
		if _, err := db.RowCount("extra"); err != nil {
			exec("CREATE TABLE extra (id INT PRIMARY KEY, v TEXT)")
		}
		id := rng.Intn(4)
		if len(exec("SELECT * FROM extra WHERE id = ?", id).Rows) > 0 {
			exec("DELETE FROM extra WHERE id = ?", id)
		} else {
			exec("INSERT INTO extra (id, v) VALUES (?, ?)", id, fmt.Sprintf("e%d", step))
		}
	case 5:
		p := []string{"a.txt", "b.txt", "c.txt"}[rng.Intn(3)]
		if rng.Intn(3) == 0 && fs.Exists(p) {
			if err := fs.Remove(p); err != nil {
				t.Fatal(err)
			}
		} else if err := fs.Write(p, []byte(fmt.Sprintf("f%d", step))); err != nil {
			t.Fatal(err)
		}
	default:
		in := r.app.Interp()
		if rng.Intn(2) == 0 {
			in.SetGlobal("counter", float64(step))
		} else {
			in.SetGlobal("tags", script.NewList(fmt.Sprintf("t%d", step), float64(rng.Intn(9))))
		}
		if err := r.bind.MirrorGlobals(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyRemoteMatchesRebuildOracle drives randomized two-replica
// histories — concurrent inserts of one key, deletes racing updates,
// out-of-order deltas that park and release, duplicate deliveries,
// unsorted local inserts, file writes and removes, global updates —
// and after every remote apply requires the incremental path to leave
// the app exactly as the full rebuild would.
func TestApplyRemoteMatchesRebuildOracle(t *testing.T) {
	units := diffUnits()
	routes := []httpapp.Route{{Method: "GET", Path: "/", Handler: "noop"}}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cloudApp, err := httpapp.New("diff", diffSrc, routes)
		if err != nil {
			t.Fatal(err)
		}
		cloudState := newState(t, "cloud")
		cloudBind, err := Bind(cloudApp, cloudState, units)
		if err != nil {
			t.Fatal(err)
		}
		edgeApp, err := cloudApp.Clone()
		if err != nil {
			t.Fatal(err)
		}
		edgeState, err := cloudState.Fork("edge")
		if err != nil {
			t.Fatal(err)
		}
		edgeBind, err := BindReplica(edgeApp, edgeState, units)
		if err != nil {
			t.Fatal(err)
		}
		reps := []*diffReplica{{cloudApp, cloudState, cloudBind}, {edgeApp, edgeState, edgeBind}}

		for step := 0; step < 80; step++ {
			i := rng.Intn(2)
			src, dst := reps[i], reps[1-i]
			if rng.Intn(5) < 3 {
				localStep(t, rng, src, step)
				continue
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			d := src.state.Delta(dst.state.Heads())
			switch rng.Intn(3) {
			case 0: // out of order: the tail of each component first
				tail := Delta{}
				for comp, chs := range d {
					if len(chs) > 1 {
						tail[comp] = chs[1:]
					}
				}
				applyChecked(t, dst, tail, units, where+" (tail)")
			case 1: // duplicate delivery
				applyChecked(t, dst, d, units, where+" (first copy)")
			}
			applyChecked(t, dst, d, units, where)
		}
		// Quiesce: after a full exchange both apps hold the same state.
		for i := range reps {
			applyChecked(t, reps[1-i], reps[i].state.Delta(reps[1-i].state.Heads()), units, fmt.Sprintf("seed %d final", seed))
		}
		if !cloudState.Converged(edgeState) {
			t.Fatalf("seed %d: CRDT states did not converge", seed)
		}
		if a, b := reps[0].view(t, units), reps[1].view(t, units); !sameView(a, b) {
			t.Fatalf("seed %d: apps diverged after a full exchange\ncloud %+v\nedge  %+v", seed, a, b)
		}
		for _, r := range reps {
			if n, err := r.bind.ApplyErrors(); n != 0 {
				t.Fatalf("seed %d: %d mirror errors, first %v", seed, n, err)
			}
		}
	}
}

// TestBindingRowKeysAgree pins one key per row across seeding,
// mirroring and materialization, for a table whose primary key is
// neither its first column nor named "id", and for a table without a
// primary key (synthetic "_rowid_N" keys). A disagreement shows up as a
// duplicated row once rows are written by CRDT key.
func TestBindingRowKeysAgree(t *testing.T) {
	for _, tc := range []struct{ name, create, insert, update, del, add string }{
		{
			name:   "pk-not-first",
			create: "CREATE TABLE stock (name TEXT, sku TEXT PRIMARY KEY, qty INT)",
			insert: "INSERT INTO stock (name, sku, qty) VALUES ('bolt', 's1', 5), ('nut', 's2', 9)",
			update: "UPDATE stock SET qty = 4 WHERE sku = 's1'",
			del:    "DELETE FROM stock WHERE sku = 's2'",
			add:    "INSERT INTO stock (name, sku, qty) VALUES ('washer', 's3', 1)",
		},
		{
			name:   "no-pk",
			create: "CREATE TABLE stock (name TEXT, qty INT)",
			insert: "INSERT INTO stock (name, qty) VALUES ('bolt', 5), ('nut', 9)",
			update: "UPDATE stock SET qty = 4 WHERE name = 'bolt'",
			del:    "DELETE FROM stock WHERE name = 'nut'",
			add:    "INSERT INTO stock (name, qty) VALUES ('washer', 1)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := fmt.Sprintf("func init() any {\n\tdb.exec(%q)\n\tdb.exec(%q)\n\treturn nil\n}\n\nfunc noop(req any, res any) any {\n\treturn nil\n}", tc.create, tc.insert)
			units := analysis.StateUnits{Tables: []string{"stock"}}
			cloudApp, err := httpapp.New("keys", src, []httpapp.Route{{Method: "GET", Path: "/", Handler: "noop"}})
			if err != nil {
				t.Fatal(err)
			}
			cloudState := newState(t, "cloud")
			cloudBind, err := Bind(cloudApp, cloudState, units)
			if err != nil {
				t.Fatal(err)
			}
			agree := func(where string, app *httpapp.App, state *ReplicaState) {
				t.Helper()
				keys, rows, err := app.DB().KeyRows("stock")
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range keys {
					row, _ := state.Tables.Row("stock", k)
					if got, want := normRows([]sqldb.Row{row}), normRows(rows[i:i+1]); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: key %s: CRDT row %v, database row %v", where, k, got, want)
					}
				}
				sort.Strings(keys)
				if crdtKeys := state.Tables.RowKeys("stock"); !reflect.DeepEqual(keys, crdtKeys) {
					t.Fatalf("%s: database keys %v, CRDT keys %v", where, keys, crdtKeys)
				}
			}
			agree("seeded", cloudApp, cloudState)
			if _, err := cloudApp.DB().Exec(tc.update); err != nil {
				t.Fatal(err)
			}
			agree("mirrored update", cloudApp, cloudState)

			edgeApp, err := cloudApp.Clone()
			if err != nil {
				t.Fatal(err)
			}
			edgeState, err := cloudState.Fork("edge")
			if err != nil {
				t.Fatal(err)
			}
			edgeBind, err := BindReplica(edgeApp, edgeState, units)
			if err != nil {
				t.Fatal(err)
			}
			agree("materialized", edgeApp, edgeState)

			if _, err := edgeApp.DB().Exec(tc.del); err != nil {
				t.Fatal(err)
			}
			if _, err := cloudBind.ApplyRemoteCount(edgeState.Delta(cloudState.Heads())); err != nil {
				t.Fatal(err)
			}
			agree("remote delete", cloudApp, cloudState)
			if n, _ := cloudApp.DB().RowCount("stock"); n != 1 {
				t.Fatalf("cloud holds %d rows after the remote delete, want 1", n)
			}
			if _, err := cloudApp.DB().Exec(tc.add); err != nil {
				t.Fatal(err)
			}
			if _, err := edgeBind.ApplyRemoteCount(cloudState.Delta(edgeState.Heads())); err != nil {
				t.Fatal(err)
			}
			agree("remote insert", edgeApp, edgeState)
			if n, _ := edgeApp.DB().RowCount("stock"); n != 2 {
				t.Fatalf("edge holds %d rows after the remote insert, want 2", n)
			}
		})
	}
}
