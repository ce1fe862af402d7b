package main

import (
	"repro/internal/obs"
	"repro/internal/workload"
)

// putLayers records the per-layer metrics of the traced rung g: span
// self times, counter deltas normalised by the completed writes,
// write visibility, and the Go runtime's share.
func (b *bench) putLayers(lt layerTimes, g *rung) {
	r, vis, d := g.r, g.vis, g.delta
	writes := float64(r.writes)
	if len(lt.forward) == 0 {
		b.rep.Flags = append(b.rep.Flags, "no request was forwarded to the cloud: core.forward_us.p50 and .p99 have no samples and read 0")
	}
	b.put("front.self_us.p50", median(lt.frontSelf))
	b.put("core.forward_share", ratio(float64(d.forwards), float64(d.edgeReqs)))
	b.put("core.forward_us.p50", median(lt.forward))
	b.put("core.forward_us.p99", quantile(lt.forward, 0.99))
	b.put("cluster.invoke_us.read.p50", median(lt.invokeRead))
	b.put("cluster.invoke_us.read.p99", quantile(lt.invokeRead, 0.99))
	b.put("cluster.invoke_us.write.p50", median(lt.invokeWrite))
	b.put("cluster.invoke_us.write.p99", quantile(lt.invokeWrite, 0.99))
	b.put("cluster.slot_wait_us.read.p50", median(lt.waitRead))
	b.put("cluster.slot_wait_us.read.p99", quantile(lt.waitRead, 0.99))
	b.put("cluster.slot_wait_us.write.p50", median(lt.waitWrite))
	b.put("cluster.slot_wait_us.write.p99", quantile(lt.waitWrite, 0.99))
	b.put("cluster.reads", float64(d.read))
	b.put("cluster.writes", float64(d.write))
	b.put("cluster.mispredict_ratio", ratio(float64(d.mispred), float64(d.read+d.mispred)))
	b.put("httpapp.exec_us.read.p50", median(lt.execRead))
	b.put("httpapp.exec_us.write.p50", median(lt.execWrite))
	b.put("statesync.after_invoke_us.p50", median(lt.afterInvoke))
	b.put("statesync.after_invoke_us.p99", quantile(lt.afterInvoke, 0.99))

	b.put("durable.appends_per_write", ratio(float64(d.wal.Appends), writes))
	b.put("durable.fsyncs_per_write", ratio(float64(d.wal.Fsyncs), writes))
	b.put("durable.commit_batch_mean", ratio(float64(d.wal.Appends), float64(d.wal.GroupCommits)))
	b.put("durable.bytes_per_write", ratio(float64(d.wal.AppendedBytes), writes))
	b.put("statesync.bytes_per_write", ratio(float64(d.tcp.BytesSent), writes))
	b.put("statesync.frames_per_write", ratio(float64(d.tcp.FramesSent), writes))
	b.put("statesync.apply_ratio", ratio(float64(d.tcp.ChangesApplied), float64(d.tcp.ChangesRecv)))
	b.put("statesync.window_stalls", float64(d.tcp.WindowStalls))
	b.put("statesync.visible_cloud_ms.p50", median(vis.cloud))
	b.put("statesync.visible_cloud_ms.p99", quantile(vis.cloud, 0.99))
	b.put("statesync.visible_peer_ms.p50", median(vis.peer))
	b.put("statesync.visible_peer_ms.p99", quantile(vis.peer, 0.99))
	b.put("statesync.visible_poll_ms", vis.resolution())
	b.put("statesync.visible_unresolved", float64(g.unresolved))
	b.put("statesync.apply_errors", float64(g.applyErrors))
	b.put("statesync.reconnects", float64(g.reconnects))

	b.put("go.gc_pause_ms", float64(d.gcPause)/1e6)
	b.put("go.alloc_bytes_per_req", ratio(float64(d.alloc), float64(r.completed)))
	b.put("loadgen.lag_ms.p99", r.lagP99)
	b.put("error_share", ratio(float64(r.failed), float64(r.attempted)))
}

// putStages reads the pipeline stage spans of the sweep: milliseconds
// per sweep of the seven subjects, summed over the sweep's pipelines.
func (b *bench) putStages(o *obs.Obs) {
	sweeps := float64(countSpans(o, "pipeline")) / float64(len(workload.Subjects()))
	per := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += spanTotal(o, n)
		}
		return t / sweeps
	}
	b.put("capture.ms", per("capture"))
	b.put("analysis.ms", per("normalize", "infer_subject", "analyze"))
	b.put("datalog.ms", per("datalog"))
	b.put("refactor.ms", per("extract", "generate_replica"))
	b.put("checkpoint.ms", per("state_init"))
	snap := o.Snapshot()
	for _, m := range snap.Metrics {
		switch m.Name {
		case "datalog.iterations", "datalog.facts_derived":
			b.put(m.Name, m.Value/sweeps)
		}
	}
}

// spanTotal sums the durations (ms) of every span with the given name.
func spanTotal(o *obs.Obs, name string) float64 {
	total := 0.0
	walkSpans(o.Snapshot().Trace, func(s *obs.SpanSnapshot) {
		if s.Name == name {
			total += float64(s.DurUS) / 1e3
		}
	})
	return total
}

func countSpans(o *obs.Obs, name string) int {
	n := 0
	walkSpans(o.Snapshot().Trace, func(s *obs.SpanSnapshot) {
		if s.Name == name {
			n++
		}
	})
	return n
}

func walkSpans(spans []*obs.SpanSnapshot, f func(*obs.SpanSnapshot)) {
	for _, s := range spans {
		f(s)
		walkSpans(s.Children, f)
	}
}
