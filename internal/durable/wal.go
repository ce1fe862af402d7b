package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/crdt"
)

// FsyncPolicy selects when the WAL forces appended frames to stable
// storage. The zero value is FsyncAlways — safe by default; callers
// opt into weaker guarantees explicitly.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncAlways syncs after every append: a frame is on disk before
	// Append returns, so an acknowledged change can never be lost.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs lazily at most once per Options.FsyncEvery
	// (checked on append — no background goroutine), bounding loss to
	// one interval of traffic.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache; a host crash can
	// lose everything since the last rotation or snapshot.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses "always", "interval", or "never" (the -fsync
// flag values).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Segment and snapshot file naming. Sequence numbers are zero-padded so
// lexical directory order equals numeric order.
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(seq uint64) string  { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name, returning ok=false for files that are neither.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// maxFrameBytes bounds one frame, so a corrupt length prefix cannot
// force an unbounded allocation during recovery.
const maxFrameBytes = 64 << 20

// errBadFrame tags recoverable frame corruption (torn write, bit flip):
// recovery stops replay at the damaged frame instead of failing.
var errBadFrame = errors.New("durable: bad frame")

// A frame is the WAL's unit of atomicity:
//
//	[4B big-endian payload length][4B big-endian CRC32-IEEE][payload]
//
// The CRC covers the payload only; a torn write is detected either by a
// short header/payload read or by a checksum mismatch.
func appendFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// readFrameAt reads one frame from r. It returns errBadFrame (possibly
// wrapped) for any torn or corrupt frame, and io.EOF at a clean end.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean end of segment
		}
		return nil, fmt.Errorf("%w: torn header: %v", errBadFrame, err)
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > maxFrameBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", errBadFrame, size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: torn payload: %v", errBadFrame, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	return payload, nil
}

// A WAL record is one persisted batch of changes for one component:
//
//	uvarint(len(component)) component EncodeChangesBinary(changes)
//
// The change encoding carries its own format-version byte (see
// crdt.BinaryFormatVersion), so the record format is pinned with it.
//
// encodeRecordInto appends the record to dst, letting the append hot
// path encode into a pooled buffer.
func encodeRecordInto(dst []byte, component string, chs []crdt.Change) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(component)))
	dst = append(dst, component...)
	return crdt.EncodeChangesInto(dst, chs)
}

// appendRecordFrame encodes a record straight into a frame appended to
// dst: the header is reserved first and filled in once the payload's
// length and checksum are known, so the record is never copied.
func appendRecordFrame(dst []byte, component string, chs []crdt.Change) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, 8)...)
	dst = encodeRecordInto(dst, component, chs)
	payload := dst[start+8:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

func decodeRecord(payload []byte) (string, []crdt.Change, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 || n > uint64(len(payload)-used) {
		return "", nil, fmt.Errorf("%w: bad record component length", errBadFrame)
	}
	component := string(payload[used : used+int(n)])
	chs, err := crdt.DecodeChangesBinary(payload[used+int(n):])
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return component, chs, nil
}

// wal owns the active segment file. All methods run under the owning
// Store's mutex.
type wal struct {
	dir      string
	policy   FsyncPolicy
	every    time.Duration
	segBytes int64

	f        *os.File
	seq      uint64 // active segment sequence
	size     int64  // bytes in the active segment
	dirty    bool   // unsynced appends pending
	lastSync time.Time

	onFsync    func()
	onRotation func()
}

// openSegment opens (creating if needed) the segment for appending.
func (w *wal) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: stat segment: %w", err)
	}
	w.f = f
	w.seq = seq
	w.size = st.Size()
	return nil
}

// appendFrames writes pre-framed bytes (one or more complete frames) to
// the active segment in a single write syscall, applying the fsync
// policy once for the whole batch and rotating when the segment exceeds
// its size budget. This is the group-commit write: every frame in the
// batch shares the one fsync.
func (w *wal) appendFrames(frames []byte) (int, error) {
	n, err := w.f.Write(frames)
	w.size += int64(n)
	if err != nil {
		return n, fmt.Errorf("durable: append: %w", err)
	}
	w.dirty = true
	switch w.policy {
	case FsyncAlways:
		if err := w.sync(); err != nil {
			return n, err
		}
	case FsyncInterval:
		if time.Since(w.lastSync) >= w.every {
			if err := w.sync(); err != nil {
				return n, err
			}
		}
	}
	if w.size >= w.segBytes {
		if err := w.rotate(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// sync flushes the active segment to stable storage.
func (w *wal) sync() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	w.dirty = false
	w.lastSync = time.Now()
	if w.onFsync != nil {
		w.onFsync()
	}
	return nil
}

// rotate seals the active segment (synced regardless of policy, so a
// sealed segment is always durable) and starts the next one.
func (w *wal) rotate() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: rotate sync: %w", err)
	}
	w.dirty = false
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: rotate close: %w", err)
	}
	if err := w.openSegment(w.seq + 1); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	if w.onRotation != nil {
		w.onRotation()
	}
	return nil
}

// close seals the active segment.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	syncErr := w.sync()
	if err := w.f.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	w.f = nil
	return syncErr
}

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir: %w", err)
	}
	defer func() { _ = d.Close() }()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}

// listSeqs returns the sorted sequence numbers of files in dir matching
// prefix/suffix.
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: read dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
