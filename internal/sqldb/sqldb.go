// Package sqldb implements a small in-memory SQL database engine.
//
// The subject services persist state in SQL databases; the EdgStr
// transformation identifies SQL statements by argument inspection,
// shadows them with snapshot and START TRANSACTION/ROLLBACK executions
// during dynamic analysis, and rewrites them onto CRDT-Table at
// replication time. This engine supports exactly that surface:
//
//   - CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
//   - INSERT INTO t (cols) VALUES (...), (...)
//   - SELECT cols|*|aggregates FROM t [WHERE ...] [ORDER BY col [DESC]] [LIMIT n]
//   - UPDATE t SET col = expr, ... [WHERE ...]
//   - DELETE FROM t [WHERE ...]
//   - START TRANSACTION | BEGIN, COMMIT, ROLLBACK
//   - SNAPSHOT (whole-database dump, used by the shadow execution)
//
// Values are dynamically typed (int64, float64, string, bool, []byte,
// nil) with numeric coercion on comparison, mirroring how the paper's
// JavaScript services treat SQL results. Mutation hooks let the
// generated CRDT wiring observe every committed row change.
package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Common errors.
var (
	ErrNoTable       = errors.New("sqldb: no such table")
	ErrNoTransaction = errors.New("sqldb: no active transaction")
	ErrInTransaction = errors.New("sqldb: transaction already active")
	ErrDuplicateKey  = errors.New("sqldb: duplicate primary key")
	// ErrMutation is returned by ExecReadOnly for statements that would
	// mutate database state.
	ErrMutation = errors.New("sqldb: statement mutates state")
)

// Row is a single table row: column name → value.
type Row map[string]any

// clone deep-copies a row (values are scalars, so shallow per value).
func (r Row) clone() Row {
	c := make(Row, len(r))
	for k, v := range r {
		if b, ok := v.([]byte); ok {
			cp := make([]byte, len(b))
			copy(cp, b)
			c[k] = cp
			continue
		}
		c[k] = v
	}
	return c
}

// Result is the outcome of executing one statement.
type Result struct {
	// Cols lists result column names for SELECT.
	Cols []string
	// Rows holds the result set for SELECT.
	Rows []Row
	// Affected counts rows changed by INSERT/UPDATE/DELETE.
	Affected int
	// LastKey is the primary key of the last inserted row.
	LastKey string
}

// MutationKind distinguishes committed row changes.
type MutationKind int

// Mutation kinds.
const (
	MutInsert MutationKind = iota + 1
	MutUpdate
	MutDelete
)

func (k MutationKind) String() string {
	switch k {
	case MutInsert:
		return "insert"
	case MutUpdate:
		return "update"
	case MutDelete:
		return "delete"
	default:
		return fmt.Sprintf("MutationKind(%d)", int(k))
	}
}

// Mutation describes one committed row change, as observed by hooks.
type Mutation struct {
	Table string
	Kind  MutationKind
	Key   string
	// Cols holds the row's full column set after the change (nil for
	// deletes).
	Cols map[string]any
}

// MutationHook observes committed mutations. Hooks run synchronously in
// statement order; transaction rollbacks suppress the hooks of the
// rolled-back statements.
type MutationHook func(Mutation)

// colDef describes one declared column.
type colDef struct {
	name string
	typ  string
	pk   bool
}

// tableData is the storage for one table.
type tableData struct {
	name     string
	cols     []colDef
	pkCol    string // "" means synthetic row IDs
	rows     map[string]Row
	keyOrder []string
	// unsorted records that an insert appended a key below its
	// predecessor, so keyOrder is no longer in ascending key order.
	unsorted bool
	nextID   int64
}

func (t *tableData) clone() *tableData {
	c := &tableData{
		name:     t.name,
		cols:     append([]colDef(nil), t.cols...),
		pkCol:    t.pkCol,
		rows:     make(map[string]Row, len(t.rows)),
		keyOrder: append([]string(nil), t.keyOrder...),
		unsorted: t.unsorted,
		nextID:   t.nextID,
	}
	for k, r := range t.rows {
		c.rows[k] = r.clone()
	}
	return c
}

// DB is an in-memory SQL database. It is safe for concurrent use;
// SELECT statements take the lock in shared mode, so concurrent reads
// execute in parallel and only mutations serialize.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*tableData
	txSnap map[string]*tableData // pre-transaction state, nil when idle
	txMuts []Mutation            // mutations buffered until commit
	hooks  []MutationHook
	probe  MutationHook
	muted  bool
}

// Open returns an empty database.
func Open() *DB {
	return &DB{tables: make(map[string]*tableData)}
}

// OnMutation registers a hook for committed row changes.
func (db *DB) OnMutation(h MutationHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.hooks = append(db.hooks, h)
}

// SetMuted toggles hook suppression. The synchronization runtime mutes
// hooks while applying remote state, so inbound changes are not echoed
// back out as fresh local mutations.
func (db *DB) SetMuted(m bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.muted = m
}

// SetProbe installs (or, with nil, removes) a removable observation
// hook. The dynamic analysis uses it as the paper's shadow execution of
// identified SQL invocations: mutations are observed per statement while
// the analysis run is active, then the probe is detached. Unlike
// OnMutation hooks, a probe also sees mutations buffered inside an open
// transaction (shadow executions wrap statements in
// START TRANSACTION/ROLLBACK and still need to observe them).
func (db *DB) SetProbe(h MutationHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.probe = h
}

// TableNames returns the table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RowCount returns the number of rows in a table.
func (db *DB) RowCount(table string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	return len(t.rows), nil
}

// Snapshot returns a deep copy of the database state — the paper's
// whole-database snapshot appended by the shadow execution.
type Snapshot struct {
	tables map[string]*tableData
}

// Snapshot captures the full database state.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	return &Snapshot{tables: cloneTables(db.tables)}
}

// Restore replaces the database state with a snapshot. Any active
// transaction is discarded.
func (db *DB) Restore(s *Snapshot) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables = cloneTables(s.tables)
	db.txSnap = nil
	db.txMuts = nil
}

func cloneTables(src map[string]*tableData) map[string]*tableData {
	dst := make(map[string]*tableData, len(src))
	for n, t := range src {
		dst[n] = t.clone()
	}
	return dst
}

// SizeBytes estimates the in-memory footprint of the database contents;
// the evaluation uses it to report replicated-state sizes.
func (db *DB) SizeBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var n int64
	for name, t := range db.tables {
		n += int64(len(name))
		for k, r := range t.rows {
			n += int64(len(k))
			for c, v := range r {
				n += int64(len(c)) + valueSize(v)
			}
		}
	}
	return n
}

func valueSize(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 1
	case bool:
		return 1
	case int64, float64:
		return 8
	case string:
		return int64(len(x))
	case []byte:
		return int64(len(x))
	default:
		return 16
	}
}

// Dump returns all rows of every table, ordered by table name and primary
// key — a canonical form used to compare database states for equality.
func (db *DB) Dump() map[string][]Row {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string][]Row, len(db.tables))
	for name, t := range db.tables {
		keys := append([]string(nil), t.keyOrder...)
		sort.Strings(keys)
		rows := make([]Row, 0, len(keys))
		for _, k := range keys {
			rows = append(rows, t.rows[k].clone())
		}
		out[name] = rows
	}
	return out
}

// KeyRows returns a table's rows with their primary keys, in scan
// order. The keys are the ones mutation hooks report: the declared
// primary key's value, or the synthetic "_rowid_N" of a table declared
// without one.
func (db *DB) KeyRows(table string) ([]string, []Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(table)
	if err != nil {
		return nil, nil, err
	}
	keys := append([]string(nil), t.keyOrder...)
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = t.rows[k].clone()
	}
	return keys, rows, nil
}

// WriteRows upserts and deletes rows by primary key without going
// through SQL text: a nil Row deletes its key (an absent key is not an
// error), any other Row replaces the row stored under its key or is
// inserted under it. The key is taken as given, not derived from the
// row's columns. Values take the same forms as statement arguments.
//
// Afterwards the table scans in ascending key order — the order a
// reload of every row in key order would leave — even if local inserts
// appended out of order since. Mutation hooks see one insert, update or
// delete per written key, in key order, unless the database is muted.
func (db *DB) WriteRows(table string, rows map[string]Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(table)
	if err != nil {
		return err
	}
	if t.unsorted {
		sort.Strings(t.keyOrder)
		t.unsorted = false
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		i, found := slices.BinarySearch(t.keyOrder, key)
		if rows[key] == nil {
			if !found {
				continue
			}
			delete(t.rows, key)
			t.keyOrder = slices.Delete(t.keyOrder, i, i+1)
			db.emit(Mutation{Table: table, Kind: MutDelete, Key: key})
			continue
		}
		row := make(Row, len(rows[key]))
		for c, v := range rows[key] {
			nv, err := normalizeArg(v)
			if err != nil {
				return fmt.Errorf("sqldb: row %s/%s column %q: %w", table, key, c, err)
			}
			if b, ok := nv.([]byte); ok {
				nv = append([]byte(nil), b...) // own the caller's bytes
			}
			row[c] = nv
		}
		t.rows[key] = row
		kind := MutUpdate
		if !found {
			kind = MutInsert
			t.keyOrder = slices.Insert(t.keyOrder, i, key)
			t.reserveRowID(key)
		}
		if !db.muted {
			db.emit(Mutation{Table: table, Kind: kind, Key: key, Cols: row.clone()})
		}
	}
	return nil
}

// reserveRowID advances a key-less table's row-ID counter past a
// synthetic key written from outside, so later inserts cannot reuse it.
func (t *tableData) reserveRowID(key string) {
	digits, ok := strings.CutPrefix(key, "_rowid_")
	if t.pkCol != "" || !ok {
		return
	}
	if n, err := strconv.ParseInt(digits, 10, 64); err == nil && n > t.nextID {
		t.nextID = n
	}
}

// Exec parses and executes one SQL statement. Placeholders (?) are
// substituted from args in order. SELECT statements run under the
// shared lock: they read db.tables whether or not a transaction is
// open (buffered transaction writes land in the live tables, with the
// pre-transaction state parked in txSnap), never emit mutations, and
// build fresh result rows — so concurrent selects are safe.
func (db *DB) Exec(query string, args ...any) (*Result, error) {
	stmt, err := parse(query)
	if err != nil {
		return nil, err
	}
	if s, ok := stmt.(*selectStmt); ok {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.execReadStmt(s, args)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.execStmt(stmt, args)
}

// ExecReadOnly executes a statement that must not mutate state; any
// statement other than SELECT fails with ErrMutation before touching
// the database. Write-guarded (read-only) service invocations route
// their db calls through it.
func (db *DB) ExecReadOnly(query string, args ...any) (*Result, error) {
	stmt, err := parse(query)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*selectStmt)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrMutation, firstKeyword(query))
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.execReadStmt(s, args)
}

// IsReadOnlyQuery reports whether query parses as a SELECT. The static
// route classifier uses it to decide whether a literal SQL command can
// run on the shared read path.
func IsReadOnlyQuery(query string) bool {
	stmt, err := parse(query)
	if err != nil {
		return false
	}
	_, ok := stmt.(*selectStmt)
	return ok
}

// firstKeyword returns the statement's leading word, for error text.
func firstKeyword(query string) string {
	fields := strings.Fields(query)
	if len(fields) == 0 {
		return "(empty)"
	}
	return strings.ToUpper(fields[0])
}

// execReadStmt runs a SELECT under the shared lock, replicating
// execStmt's placeholder check.
func (db *DB) execReadStmt(s *selectStmt, args []any) (*Result, error) {
	if want := s.nparams(); want != len(args) {
		return nil, fmt.Errorf("sqldb: statement has %d placeholders, got %d args", want, len(args))
	}
	return db.execSelect(s, args)
}

// InTransaction reports whether a transaction is active.
func (db *DB) InTransaction() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.txSnap != nil
}

func (db *DB) execStmt(st stmt, args []any) (*Result, error) {
	if want := st.nparams(); want != len(args) {
		return nil, fmt.Errorf("sqldb: statement has %d placeholders, got %d args", want, len(args))
	}
	switch s := st.(type) {
	case *createStmt:
		return db.execCreate(s)
	case *insertStmt:
		return db.execInsert(s, args)
	case *selectStmt:
		return db.execSelect(s, args)
	case *updateStmt:
		return db.execUpdate(s, args)
	case *deleteStmt:
		return db.execDelete(s, args)
	case *txStmt:
		return db.execTx(s)
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
}

// emit dispatches a mutation: buffered while a transaction is active,
// delivered to hooks immediately otherwise.
func (db *DB) emit(m Mutation) {
	if db.muted {
		return
	}
	if db.probe != nil {
		db.probe(m)
	}
	if db.txSnap != nil {
		db.txMuts = append(db.txMuts, m)
		return
	}
	for _, h := range db.hooks {
		h(m)
	}
}

func (db *DB) execTx(s *txStmt) (*Result, error) {
	switch s.kind {
	case txBegin:
		if db.txSnap != nil {
			return nil, ErrInTransaction
		}
		db.txSnap = cloneTables(db.tables)
		return &Result{}, nil
	case txCommit:
		if db.txSnap == nil {
			return nil, ErrNoTransaction
		}
		muts := db.txMuts
		db.txSnap, db.txMuts = nil, nil
		for _, m := range muts {
			for _, h := range db.hooks {
				h(m)
			}
		}
		return &Result{}, nil
	case txRollback:
		if db.txSnap == nil {
			return nil, ErrNoTransaction
		}
		db.tables = db.txSnap
		db.txSnap, db.txMuts = nil, nil
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("sqldb: unknown transaction statement")
	}
}

func (db *DB) execCreate(s *createStmt) (*Result, error) {
	if _, exists := db.tables[s.table]; exists {
		if s.ifNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sqldb: table %q already exists", s.table)
	}
	t := &tableData{
		name: s.table,
		cols: s.cols,
		rows: make(map[string]Row),
	}
	for _, c := range s.cols {
		if c.pk {
			t.pkCol = c.name
			break
		}
	}
	db.tables[s.table] = t
	return &Result{}, nil
}

func (db *DB) table(name string) (*tableData, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

func keyString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case nil:
		return ""
	default:
		return fmt.Sprint(x)
	}
}

func (db *DB) execInsert(s *insertStmt, args []any) (*Result, error) {
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, tuple := range s.rows {
		if len(tuple) != len(s.cols) {
			return nil, fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(tuple), len(s.cols))
		}
		row := make(Row, len(s.cols))
		for i, c := range s.cols {
			v, err := evalExpr(tuple[i], nil, args)
			if err != nil {
				return nil, err
			}
			row[c] = v
		}
		var key string
		if t.pkCol != "" {
			pkv, ok := row[t.pkCol]
			if !ok {
				return nil, fmt.Errorf("sqldb: INSERT into %q missing primary key %q", s.table, t.pkCol)
			}
			key = keyString(pkv)
			if _, dup := t.rows[key]; dup {
				return nil, fmt.Errorf("%w: %s=%s", ErrDuplicateKey, t.pkCol, key)
			}
		} else {
			t.nextID++
			key = "_rowid_" + strconv.FormatInt(t.nextID, 10)
		}
		t.rows[key] = row
		if n := len(t.keyOrder); n > 0 && key < t.keyOrder[n-1] {
			t.unsorted = true
		}
		t.keyOrder = append(t.keyOrder, key)
		res.Affected++
		res.LastKey = key
		db.emit(Mutation{Table: s.table, Kind: MutInsert, Key: key, Cols: row.clone()})
	}
	return res, nil
}

func (db *DB) execUpdate(s *updateStmt, args []any) (*Result, error) {
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, key := range t.keyOrder {
		row := t.rows[key]
		match, err := rowMatches(s.where, row, args)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		// Evaluate every SET expression against the pre-update row so
		// that "SET a = b, b = a" behaves like SQL, not like sequential
		// assignment.
		newVals := make(map[string]any, len(s.sets))
		for _, col := range s.setOrder {
			v, err := evalExpr(s.sets[col], row, args)
			if err != nil {
				return nil, err
			}
			newVals[col] = v
		}
		for col, v := range newVals {
			row[col] = v
		}
		res.Affected++
		db.emit(Mutation{Table: s.table, Kind: MutUpdate, Key: key, Cols: row.clone()})
	}
	return res, nil
}

func (db *DB) execDelete(s *deleteStmt, args []any) (*Result, error) {
	t, err := db.table(s.table)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	kept := t.keyOrder[:0]
	for _, key := range t.keyOrder {
		row := t.rows[key]
		match, err := rowMatches(s.where, row, args)
		if err != nil {
			return nil, err
		}
		if match {
			delete(t.rows, key)
			res.Affected++
			db.emit(Mutation{Table: s.table, Kind: MutDelete, Key: key})
			continue
		}
		kept = append(kept, key)
	}
	t.keyOrder = kept
	return res, nil
}

func rowMatches(where expr, row Row, args []any) (bool, error) {
	if where == nil {
		return true, nil
	}
	v, err := evalExpr(where, row, args)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}
