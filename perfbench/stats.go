package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/statesync"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// chunkSize is the fewest client latencies in a chunk of chunked:
// enough for ten beyond the 99th percentile.
const chunkSize = 1000

// chunked is the typical q-quantile of samples gathered in episodes: the
// episodes, in order, are grouped into chunks of at least size samples
// (a short remainder joins the last chunk), and the median of
// the chunks' q-quantiles is returned along with them. Episodes of
// different rungs are interleaved in time, so a stretch of contention on
// the shared host moves a few chunks, not the figure.
func chunked(episodes [][]float64, q float64, size int) (float64, []float64) {
	var chunks [][]float64
	var cur []float64
	for _, ep := range episodes {
		cur = append(cur, ep...)
		if len(cur) >= size {
			chunks = append(chunks, cur)
			cur = nil
		}
	}
	switch {
	case len(cur) > 0 && len(chunks) > 0:
		chunks[len(chunks)-1] = append(chunks[len(chunks)-1], cur...)
	case len(cur) > 0:
		chunks = append(chunks, cur)
	}
	vals := make([]float64, len(chunks))
	for i, c := range chunks {
		vals[i] = quantile(c, q)
	}
	return median(append([]float64(nil), vals...)), vals
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// counters snapshots the Stats() accessors of every layer that counts,
// plus the process's CPU time and the Go runtime's allocation and GC
// pause totals.
type counters struct {
	cpu      time.Duration
	alloc    uint64             // bytes allocated
	gcPause  uint64             // ns
	tcp      statesync.TCPStats // master plus every edge
	wal      durable.Stats      // every node's store
	read     int64              // RWStats, every server
	write    int64
	mispred  int64
	edgeReqs int64
	forwards int64
}

func snapshot(s *system) counters {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c := counters{cpu: cpuTime(), alloc: mem.TotalAlloc, gcPause: mem.PauseTotalNs}
	c.tcp = sumTCP(c.tcp, s.dep.TCPMaster.Stats(), 1)
	c.read, c.write, c.mispred = s.dep.Cloud.RWStats()
	for _, e := range s.dep.Edges {
		c.tcp = sumTCP(c.tcp, e.TCP.Stats(), 1)
		r, w, m := e.Server.RWStats()
		c.read += r
		c.write += w
		c.mispred += m
	}
	for _, st := range s.dep.Stores {
		c.wal = sumWAL(c.wal, st.Stats(), 1)
	}
	c.edgeReqs, c.forwards = s.edgeRequests.Load(), s.forwarded.Load()
	return c
}

// add returns c + o; sub returns c - o.
func (c counters) add(o counters) counters { return c.combine(o, 1) }
func (c counters) sub(o counters) counters { return c.combine(o, -1) }

func (c counters) combine(o counters, sign int64) counters {
	c.cpu += time.Duration(sign) * o.cpu
	c.alloc += uint64(sign) * o.alloc
	c.gcPause += uint64(sign) * o.gcPause
	c.tcp = sumTCP(c.tcp, o.tcp, sign)
	c.wal = sumWAL(c.wal, o.wal, sign)
	c.read += sign * o.read
	c.write += sign * o.write
	c.mispred += sign * o.mispred
	c.edgeReqs += sign * o.edgeReqs
	c.forwards += sign * o.forwards
	return c
}

func sumTCP(a, b statesync.TCPStats, sign int64) statesync.TCPStats {
	a.BytesSent += sign * b.BytesSent
	a.FramesSent += sign * b.FramesSent
	a.ChangesRecv += sign * b.ChangesRecv
	a.ChangesApplied += sign * b.ChangesApplied
	a.WindowStalls += sign * b.WindowStalls
	return a
}

func sumWAL(a, b durable.Stats, sign int64) durable.Stats {
	a.Appends += sign * b.Appends
	a.AppendedBytes += sign * b.AppendedBytes
	a.Fsyncs += sign * b.Fsyncs
	a.GroupCommits += sign * b.GroupCommits
	return a
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
