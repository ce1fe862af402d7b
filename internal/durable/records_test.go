package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/crdt"
)

// sameChanges compares change logs by their canonical encoding, which
// does not tell a nil dependency map from an empty one.
func sameChanges(t *testing.T, a, b []crdt.Change) bool {
	t.Helper()
	ea, err := crdt.EncodeChanges(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := crdt.EncodeChanges(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ea) == string(eb)
}

// TestAppendRecordsOneRound pins the multi-record append: three
// component records share one commit round — one write, one fsync —
// while Stats still count three appends, and recovery returns each
// component's changes as separate Appends would.
func TestAppendRecordsOneRound(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Component: "json", Changes: docChanges(t, "j", 4)},
		{Component: "tables", Changes: docChanges(t, "t", 2)},
		{Component: "empty"}, // skipped: no frame, no append
		{Component: "files", Changes: docChanges(t, "f", 3)},
	}
	before := st.Stats()
	if err := st.AppendRecords(recs...); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if d := after.Appends - before.Appends; d != 3 {
		t.Fatalf("appends +%d, want 3 (one per non-empty record)", d)
	}
	if d := after.GroupCommits - before.GroupCommits; d != 1 {
		t.Fatalf("commit rounds +%d, want 1", d)
	}
	if d := after.Fsyncs - before.Fsyncs; d != 1 {
		t.Fatalf("fsyncs +%d, want 1", d)
	}
	if after.MaxCommitBatch != 3 {
		t.Fatalf("max commit batch %d, want 3", after.MaxCommitBatch)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	rec := st2.Recovery()
	if rec.Torn || rec.ReplayedFrames != 3 {
		t.Fatalf("recovery torn=%v frames=%d, want a clean replay of 3 frames", rec.Torn, rec.ReplayedFrames)
	}
	for _, r := range recs {
		if len(r.Changes) == 0 {
			if _, ok := rec.Components[r.Component]; ok {
				t.Fatalf("empty record %q recovered as a component", r.Component)
			}
			continue
		}
		if !sameChanges(t, rec.Components[r.Component], r.Changes) {
			t.Fatalf("component %q recovered %d changes, want %d", r.Component, len(rec.Components[r.Component]), len(r.Changes))
		}
	}
}

// TestAppendRecordsTornInsideRound tears the round's write inside its
// last and then inside its middle frame: recovery keeps exactly the
// frames before the tear.
func TestAppendRecordsTornInsideRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(sizes []int64) int64 // bytes to keep
		want []string
	}{
		{"last frame", func(s []int64) int64 { return s[0] + s[1] + s[2] - 3 }, []string{"json", "tables"}},
		{"middle frame", func(s []int64) int64 { return s[0] + s[1]/2 }, []string{"json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Fsync: FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			recs := []Record{
				{Component: "json", Changes: docChanges(t, "j", 4)},
				{Component: "tables", Changes: docChanges(t, "t", 2)},
				{Component: "files", Changes: docChanges(t, "f", 3)},
			}
			// Frame sizes, to place the tear.
			var sizes []int64
			for _, r := range recs {
				sizes = append(sizes, int64(len(appendRecordFrame(nil, r.Component, r.Changes))))
			}
			if err := st.AppendRecords(recs...); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segName(1))
			if fi, err := os.Stat(seg); err != nil || fi.Size() != sizes[0]+sizes[1]+sizes[2] {
				t.Fatalf("segment holds %v bytes (%v), want one round of %v", fi.Size(), err, sizes)
			}
			if err := os.Truncate(seg, tc.cut(sizes)); err != nil {
				t.Fatal(err)
			}

			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = st2.Close() }()
			rec := st2.Recovery()
			if !rec.Torn {
				t.Fatal("tear inside the round not detected")
			}
			var got []string
			for _, r := range recs {
				if chs, ok := rec.Components[r.Component]; ok {
					if !sameChanges(t, chs, r.Changes) {
						t.Fatalf("component %q recovered altered", r.Component)
					}
					got = append(got, r.Component)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("recovered %v, want the valid prefix %v", got, tc.want)
			}
		})
	}
}
