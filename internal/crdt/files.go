package crdt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Files is the paper's CRDT-Files: replicated file content keyed by path.
// Each path resolves last-writer-wins over whole-file writes, which
// matches how the identified services use files (write a computed
// artifact, read it back).
type Files struct {
	doc   *Doc
	files ObjID
}

const filesKey = "files"

// NewFiles returns an empty replicated file store for the given actor.
func NewFiles(actor ActorID) (*Files, error) {
	doc := NewDoc(actor)
	id, err := doc.PutNewMap(RootObj, filesKey)
	if err != nil {
		return nil, err
	}
	return &Files{doc: doc, files: id}, nil
}

// FilesFromDoc wraps an existing document as a file store.
func FilesFromDoc(doc *Doc) (*Files, error) {
	v, ok := doc.MapGet(RootObj, filesKey)
	if !ok || v.Kind != ValObj {
		return nil, fmt.Errorf("crdt: document has no %q container", filesKey)
	}
	return &Files{doc: doc, files: v.Obj}, nil
}

// Doc exposes the underlying document for synchronization.
func (f *Files) Doc() *Doc { return f.doc }

// Fork snapshots the store for a new replica actor.
func (f *Files) Fork(actor ActorID) (*Files, error) {
	nd, err := f.doc.Fork(actor)
	if err != nil {
		return nil, err
	}
	return FilesFromDoc(nd)
}

// Write stores content at path, replacing any previous version.
func (f *Files) Write(path string, content []byte) error {
	if path == "" {
		return fmt.Errorf("crdt: empty file path")
	}
	return f.doc.PutScalar(f.files, path, content)
}

// Read returns the content at path.
func (f *Files) Read(path string) ([]byte, bool) {
	v, ok := f.doc.MapGet(f.files, path)
	if !ok || v.Kind != ValBytes {
		return nil, false
	}
	b, _ := v.ToGo().([]byte)
	return b, true
}

// Remove deletes the file at path.
func (f *Files) Remove(path string) error {
	if _, ok := f.doc.MapGet(f.files, path); !ok {
		return nil
	}
	return f.doc.Delete(f.files, path)
}

// PathOf maps an op of an integrated change to the file path it wrote
// or removed.
func (f *Files) PathOf(op Op) (string, bool) {
	if op.Obj != f.files || (op.Type != OpSet && op.Type != OpDel) {
		return "", false
	}
	return op.Key, true
}

// Paths returns the stored paths, sorted.
func (f *Files) Paths() []string { return f.doc.MapKeys(f.files) }

// Hash returns the hex SHA-256 of the file at path.
func (f *Files) Hash(path string) (string, bool) {
	b, ok := f.Read(path)
	if !ok {
		return "", false
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
}

// TotalBytes returns the summed size of all stored files.
func (f *Files) TotalBytes() int64 {
	var n int64
	for _, p := range f.Paths() {
		if b, ok := f.Read(p); ok {
			n += int64(len(b))
		}
	}
	return n
}

// GetChanges returns the changes a peer with version vector since is
// missing.
func (f *Files) GetChanges(since VersionVector) []Change { return f.doc.GetChanges(since) }

// ApplyChanges integrates changes from a peer.
func (f *Files) ApplyChanges(chs []Change) (int, error) { return f.doc.ApplyChanges(chs) }

// Heads returns the store's version vector.
func (f *Files) Heads() VersionVector { return f.doc.Heads() }
