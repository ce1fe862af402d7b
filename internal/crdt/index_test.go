package crdt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scanChanges is the linear history walk GetChanges replaced: the
// oracle its per-actor index must reproduce exactly, in history order.
func scanChanges(d *Doc, since VersionVector) []Change {
	d.Commit("")
	var out []Change
	for _, ch := range d.history {
		if ch.Seq > since[ch.Actor] {
			out = append(out, ch)
		}
	}
	return out
}

// TestGetChangesIndexedMatchesScan drives three actors through random
// local writes, out-of-order deliveries (which park and later release),
// and compactions, comparing the indexed lookup against the linear scan
// for many version vectors after every step.
func TestGetChangesIndexedMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		actors := []ActorID{"a", "b", "c"}
		docs := make([]*Doc, len(actors))
		for i, a := range actors {
			docs[i] = NewDoc(a)
		}
		check := func(step int) {
			for _, d := range docs {
				vvs := []VersionVector{nil, {}, d.Heads(), d.Compacted()}
				for k := 0; k < 6; k++ {
					vv := VersionVector{}
					for _, a := range append(actors, "stranger") {
						if rng.Intn(3) > 0 {
							vv[a] = uint64(rng.Intn(12))
						}
					}
					vvs = append(vvs, vv)
				}
				for _, vv := range vvs {
					got, want := d.GetChanges(vv), scanChanges(d, vv)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d doc %s since %v:\nindexed %s\nscan    %s",
							seed, step, d.Actor(), vv, changeIDs(got), changeIDs(want))
					}
				}
			}
		}
		for step := 0; step < 60; step++ {
			d := docs[rng.Intn(len(docs))]
			switch r := rng.Intn(10); {
			case r < 5:
				if err := d.PutScalar(RootObj, fmt.Sprintf("k%d", rng.Intn(4)), float64(step)); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					d.Commit("")
				}
			case r < 8:
				// Deliver a peer's missing changes, possibly reversed so
				// the later ones park until the earlier ones arrive.
				src := docs[rng.Intn(len(docs))]
				chs := src.GetChanges(d.Heads())
				if rng.Intn(2) == 0 {
					for i, j := 0, len(chs)-1; i < j; i, j = i+1, j-1 {
						chs[i], chs[j] = chs[j], chs[i]
					}
				}
				if n := len(chs); n > 1 && rng.Intn(2) == 0 {
					chs = chs[n/2:] // a gap: these park
				}
				if _, err := d.ApplyChanges(chs); err != nil {
					t.Fatal(err)
				}
			default:
				through := VersionVector{}
				for _, a := range actors {
					through[a] = uint64(rng.Intn(6))
				}
				d.Compact(through)
			}
			check(step)
		}
	}
}

func changeIDs(chs []Change) []string {
	ids := make([]string, len(chs))
	for i, ch := range chs {
		ids[i] = fmt.Sprintf("%s/%d", ch.Actor, ch.Seq)
	}
	return ids
}

// TestApplyChangesFuncReportsIntegrated checks the integration report:
// duplicates and still-parked changes are not reported, and changes a
// batch releases from the parked queue are.
func TestApplyChangesFuncReportsIntegrated(t *testing.T) {
	src := NewDoc("a")
	for i := 0; i < 3; i++ {
		if err := src.PutScalar(RootObj, "k", float64(i)); err != nil {
			t.Fatal(err)
		}
		src.Commit("")
	}
	chs := src.GetChanges(nil)
	dst := NewDoc("b")
	var got []string
	report := func(ch Change) { got = append(got, fmt.Sprintf("%s/%d", ch.Actor, ch.Seq)) }

	if n, err := dst.ApplyChangesFunc(chs[1:], report); err != nil || n != 0 || len(got) != 0 {
		t.Fatalf("gap batch: n=%d err=%v reported %v, want nothing integrated", n, err, got)
	}
	if n, err := dst.ApplyChangesFunc(chs[:1], report); err != nil || n != 3 {
		t.Fatalf("releasing batch: n=%d err=%v, want 3", n, err)
	}
	if want := []string{"a/1", "a/2", "a/3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
	got = nil
	if n, err := dst.ApplyChangesFunc(chs, report); err != nil || n != 0 || len(got) != 0 {
		t.Fatalf("duplicate batch: n=%d err=%v reported %v", n, err, got)
	}
}

// TestParentKeepsLosingObjects pins the reverse index under a
// concurrent write of the same key: both objects map back to the slot,
// including the one that lost the last-writer-wins race.
func TestParentKeepsLosingObjects(t *testing.T) {
	a, b := NewDoc("a"), NewDoc("b")
	ida, err := a.PutNewMap(RootObj, "row")
	if err != nil {
		t.Fatal(err)
	}
	idb, err := b.PutNewMap(RootObj, "row")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyChanges(b.GetChanges(nil)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ObjID{ida, idb} {
		p, k, ok := a.Parent(id)
		if !ok || p != RootObj || k != "row" {
			t.Fatalf("Parent(%s) = %s, %q, %v; want root, \"row\"", id, p, k, ok)
		}
	}
	if _, _, ok := a.Parent(RootObj); ok {
		t.Fatal("root has a parent")
	}
}
