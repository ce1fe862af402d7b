package crdt

import (
	"bytes"
	"reflect"
	"testing"
)

func TestFilesWriteReadRemove(t *testing.T) {
	fs, err := NewFiles("cloud")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("model/weights.bin", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, ok := fs.Read("model/weights.bin")
	if !ok || !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Read = %v, %v", b, ok)
	}
	if err := fs.Write("", nil); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := fs.Remove("model/weights.bin"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Read("model/weights.bin"); ok {
		t.Fatal("removed file still readable")
	}
	if err := fs.Remove("never-existed"); err != nil {
		t.Fatal(err)
	}
}

func TestFilesHashAndTotal(t *testing.T) {
	fs, err := NewFiles("cloud")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("a.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("b.txt", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	h1, ok := fs.Hash("a.txt")
	if !ok || len(h1) != 64 {
		t.Fatalf("Hash = %q, %v", h1, ok)
	}
	if _, ok := fs.Hash("missing"); ok {
		t.Fatal("Hash of missing file succeeded")
	}
	if got := fs.TotalBytes(); got != 11 {
		t.Fatalf("TotalBytes = %d, want 11", got)
	}
	want := []string{"a.txt", "b.txt"}
	if got := fs.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Paths = %v, want %v", got, want)
	}
}

func TestFilesReplication(t *testing.T) {
	cloud, err := NewFiles("cloud")
	if err != nil {
		t.Fatal(err)
	}
	if err := cloud.Write("shared.dat", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	edge, err := cloud.Fork("edge")
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.Write("edge-output.dat", []byte("result")); err != nil {
		t.Fatal(err)
	}
	if err := cloud.Write("shared.dat", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.ApplyChanges(edge.GetChanges(cloud.Heads())); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.ApplyChanges(cloud.GetChanges(edge.Heads())); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Files{cloud, edge} {
		b, ok := f.Read("shared.dat")
		if !ok || string(b) != "v2" {
			t.Fatalf("shared.dat = %q, %v; want v2", b, ok)
		}
		if _, ok := f.Read("edge-output.dat"); !ok {
			t.Fatal("edge file not replicated to cloud")
		}
	}
	hc, _ := cloud.Hash("edge-output.dat")
	he, _ := edge.Hash("edge-output.dat")
	if hc != he {
		t.Fatal("replicated file hashes differ")
	}
}

func TestFilesConcurrentWriteConverges(t *testing.T) {
	cloud, _ := NewFiles("cloud")
	if err := cloud.Write("f", []byte("base")); err != nil {
		t.Fatal(err)
	}
	a, _ := cloud.Fork("a")
	b, _ := cloud.Fork("b")
	if err := a.Write("f", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Write("f", []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyChanges(b.GetChanges(a.Heads())); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyChanges(a.GetChanges(b.Heads())); err != nil {
		t.Fatal(err)
	}
	ca, _ := a.Read("f")
	cb, _ := b.Read("f")
	if !bytes.Equal(ca, cb) {
		t.Fatalf("files diverged: %q vs %q", ca, cb)
	}
}

func TestFilesFromDocRejectsPlainDoc(t *testing.T) {
	if _, err := FilesFromDoc(NewDoc("x")); err == nil {
		t.Fatal("FilesFromDoc accepted a doc without files container")
	}
}

func BenchmarkFilesSyncDelta(b *testing.B) {
	cloud, _ := NewFiles("cloud")
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	if err := cloud.Write("seed", payload); err != nil {
		b.Fatal(err)
	}
	edge, _ := cloud.Fork("edge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := edge.Write("out", payload); err != nil {
			b.Fatal(err)
		}
		chs := edge.GetChanges(cloud.Heads())
		if _, err := cloud.ApplyChanges(chs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPathOfMapsFileOps(t *testing.T) {
	f, err := NewFiles("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write("x.txt", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("x.txt"); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, ch := range f.GetChanges(nil) {
		for _, op := range ch.Ops {
			if p, ok := f.PathOf(op); ok {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) != 2 || paths[0] != "x.txt" || paths[1] != "x.txt" {
		t.Fatalf("paths = %v, want the write and the remove of x.txt", paths)
	}
}
