// Command perfbench is the repository's wall-clock benchmark. It
// transforms a subject, deploys it as a three-tier system (cloud plus
// two edges, TCP sync every 20 ms, FsyncAlways WAL stores, concurrent
// reads on), puts a net/http front on loopback in front of every node,
// and drives the edge fronts with an open-loop, seeded Poisson load
// over a frozen ladder of offered rates. After load stops it checks
// that every replica converged and answers reads identically.
//
// Usage:
//
//	bash perfbench/run.sh --workload bookworm-read --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object: end-to-end
// metrics with --trace 0, per-layer metrics from a traced run with
// --trace 1. A failed correctness gate exits with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every ladder rate: 1 in measured runs, less in
	// the smoke test.
	scale float64
	// out receives data directories, the run report and spans.
	out string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(mainCode()) }

// mainCode runs the benchmark and returns the exit status: 0 when the
// result line was printed and the gate passed, 1 otherwise.
func mainCode() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "bookworm-read", "workload: bookworm-read or bookworm-write")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the arrival schedule and request mix")
	flag.Float64Var(&o.seconds, "seconds", 50, "measured seconds: the ladder's rungs share them")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced loaded rung and reports per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for data, reports and spans")
	flag.Parse()
	o.trace, o.scale = trace == 1, 1
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// env is the run's environment record.
type env struct {
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Fsync        string  `json:"fsync"`
	DataFS       string  `json:"data_fs"`
	SyncInterval float64 `json:"sync_interval_ms"`
	Conns        int     `json:"client_conns"`
	Edges        int     `json:"edges"`
	LatencyLimit float64 `json:"latency_limit_ms"`
	PollMS       float64 `json:"visibility_poll_ms"`
}

// report is written next to the metrics for every run.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Env      env               `json:"env"`
	Rungs    []rungReport      `json:"rungs"`
	Flags    []string          `json:"flags,omitempty"`
	Gate     string            `json:"gate"`
	Metrics  map[string]metric `json:"metrics"`
}

type rungReport struct {
	Name      string    `json:"name"`
	Offered   float64   `json:"offered_rps"`
	Achieved  float64   `json:"achieved_rps"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	P50       float64   `json:"p50_ms"`
	P99       float64   `json:"p99_ms"`
	P99All    float64   `json:"p99_whole_rung_ms"`
	Chunks    []float64 `json:"p99_chunks_ms"`
	LagP99    float64   `json:"lag_p99_ms"`
	Backlog   int       `json:"backlog"`
	Meets     bool      `json:"meets_limit"`
}

// lagLimit flags a run whose generator issued requests late: a tenth of
// the latency limit.
const lagLimit = 2.0 // ms

func connsFor() int {
	n := runtime.NumCPU() / edges * edges
	if n < edges {
		n = edges
	}
	return n
}

func run(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	dataRoot := filepath.Join(o.out, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	b := &bench{o: o, sp: sp, dataRoot: dataRoot, stdout: stdout, values: map[string]float64{}}
	b.rep = report{Workload: sp.name, Seed: o.seed, Trace: o.trace, Env: env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Fsync: "always", DataFS: fsType(dataRoot), SyncInterval: ms(syncInterval),
		Conns: connsFor(), Edges: edges, LatencyLimit: ms(latencyLimit), PollMS: ms(pollEvery),
	}}
	if o.trace {
		err = b.traced(ctx)
	} else {
		err = b.untraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	metrics, err := collect(b.values, want)
	if err != nil {
		return nil, err
	}
	b.rep.Metrics = metrics
	name := fmt.Sprintf("%s-seed%d-trace%v.json", sp.name, o.seed, o.trace)
	if err := writeJSON(filepath.Join(o.out, name), b.rep); err != nil {
		return nil, err
	}
	envLine, _ := json.Marshal(b.rep.Env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	for _, f := range b.rep.Flags {
		fmt.Fprintf(stdout, "flag %s\n", f)
	}
	fmt.Fprintf(stdout, "gate %s\n", b.rep.Gate)
	return &result{Correct: b.rep.Gate == "pass", Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bench carries one run's state.
type bench struct {
	o      options
	sp     spec
	stdout io.Writer
	rep    report
	values map[string]float64
	// dataRoot holds one durable data directory per set-up.
	dataRoot string
	setups   int

	attempted, failed int
	setupTimes        []float64
	sweepRates        []float64 // services transformed per second, per sweep
}

func (b *bench) put(name string, v float64) { b.values[name] = v }

// nextDir names a fresh durable data directory for the next set-up.
func (b *bench) nextDir() string {
	b.setups++
	return filepath.Join(b.dataRoot, fmt.Sprintf("deploy-%d", b.setups))
}

// sweep transforms the seven evaluation subjects once, one pipeline at
// a time, and returns services transformed per second.
func sweep(ctx context.Context) (float64, error) {
	start, services := time.Now(), 0
	for _, sub := range workload.Subjects() {
		if _, err := transform(ctx, sub); err != nil {
			return 0, fmt.Errorf("sweep %s: %w", sub.Name, err)
		}
		services += len(sub.Services)
	}
	return float64(services) / time.Since(start).Seconds(), nil
}

// episodeLength is the longest stretch of load one freshly set-up
// system serves. Workloads that insert rows grow their tables with
// every request, and each sync apply rebuilds the tables it touches, so
// a rung is cut into episodes that each start from the subject's
// initial state: the table size is then set by the rate and the episode
// length, not by how long the run has gone on.
const episodeLength = 2 * time.Second

// rung is one rung of the ladder: its rate and episode plan, and what
// its episodes accumulated.
type rung struct {
	name     string
	rate     float64
	seed     int64
	episodes int
	epLen    time.Duration
	visible  bool    // measure write visibility
	closed   bool    // drive closed loop to measure peak throughput
	tr       *tracer // record spans (nil: untraced)

	eps        []episode
	vis        visResult
	delta      counters // summed over episodes: load, then the visibility wait
	spans      []spanRec
	unresolved int
	// applyErrors and reconnects are read after each episode's gate.
	applyErrors, reconnects int64
	r                       rungResult // set once every episode ran (open loop)
	// peaks is a closed-loop rung's completed req/s, per episode.
	peaks                 []float64
	peakTries, peakFailed int
}

// newRung plans a rung at ladder position i (which seeds its arrivals)
// offering rate, to measure for d.
func (b *bench) newRung(name string, i int, rate float64, d time.Duration, visible bool, tr *tracer) *rung {
	n := int(math.Round(float64(d) / float64(episodeLength)))
	if n < 1 {
		n = 1
	}
	return &rung{name: name, rate: rate * b.o.scale, seed: b.o.seed*1_000_003 + int64(i+1)*1009,
		episodes: n, epLen: d / time.Duration(n), visible: visible, tr: tr}
}

// runRungs runs the rungs' episodes round-robin, so that a stretch of
// contention on the shared host falls on a few episodes of each rung
// rather than on one rung, then summarizes each rung.
func (b *bench) runRungs(ctx context.Context, rungs ...*rung) error {
	for k := 0; ; k++ {
		ran := false
		for _, g := range rungs {
			if k < g.episodes {
				if err := b.runEpisode(ctx, g, k); err != nil {
					return err
				}
				ran = true
			}
		}
		if !ran {
			break
		}
	}
	for _, g := range rungs {
		if g.closed {
			b.recordPeak(g)
			continue
		}
		g.r = summarize(g.rate, g.eps, connsFor())
		b.record(g.name, g.r)
		if g.unresolved > 0 {
			b.rep.Flags = append(b.rep.Flags, fmt.Sprintf("rung %s: %d edge writes not visible everywhere %v after load", g.name, g.unresolved, visibilityWait))
		}
	}
	return nil
}

// visibilityWait bounds the wait for an episode's last writes to become
// visible everywhere.
const visibilityWait = 5 * time.Second

// runEpisode sets up a fresh system (timed from the start of transform
// to every front accepting traffic), serves episode k of rung g on it,
// settles and gates it, and stops it. In untraced runs one transform
// sweep follows each episode, so the sweeps spread over the run too.
func (b *bench) runEpisode(ctx context.Context, g *rung, k int) error {
	start := time.Now()
	sys, err := setup(ctx, b.sp, b.nextDir(), g.tr, g.visible)
	if err != nil {
		return err
	}
	b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
	err = b.serve(sys, g, g.seed+int64(k))
	if err == nil {
		b.runGate(sys, g.name)
		errs, _ := sys.dep.CloudBinding.ApplyErrors()
		g.applyErrors += errs
		for _, e := range sys.dep.Edges {
			errs, _ := e.Binding.ApplyErrors()
			g.applyErrors += errs
			g.reconnects += e.TCP.Status().Reconnects
		}
	}
	sys.stop()
	if err != nil || b.o.trace {
		return err
	}
	tps, err := sweep(ctx)
	b.sweepRates = append(b.sweepRates, tps)
	return err
}

// serve drives one episode's arrivals against sys.
func (b *bench) serve(sys *system, g *rung, seed int64) error {
	c := newClient(sys, connsFor())
	defer c.close()
	if g.closed {
		return b.saturate(c, g, seed)
	}
	sm, err := b.sp.sampler(seed)
	if err != nil {
		return err
	}
	arr, err := c.schedule(sm, rand.New(rand.NewSource(seed^0x5eed)), g.rate, g.epLen)
	if err != nil {
		return err
	}
	var onWrite func(string, time.Time)
	if sys.vis != nil {
		sys.vis.start()
		onWrite = sys.vis.respond
	}
	before := snapshot(sys)
	if g.tr != nil {
		g.tr.on.Store(true)
	}
	out := c.run(arr, onWrite)
	if g.tr != nil {
		g.tr.on.Store(false)
		g.spans = append(g.spans, g.tr.take()...)
	}
	if sys.vis != nil {
		// The wait lets the last writes ship, so the counters hold
		// every write's sync traffic.
		g.unresolved += sys.vis.finish(visibilityWait)
		g.vis.add(sys.vis)
	}
	g.delta = g.delta.add(snapshot(sys).sub(before))
	g.eps = append(g.eps, episode{arr: arr, out: out, dur: g.epLen})
	return nil
}

// recordPeak adds a closed-loop rung to the report and the run's
// request totals.
func (b *bench) recordPeak(g *rung) {
	b.attempted += g.peakTries
	b.failed += g.peakFailed
	rate := median(append([]float64(nil), g.peaks...))
	b.rep.Rungs = append(b.rep.Rungs, rungReport{Name: g.name, Achieved: rate, Attempted: g.peakTries, Failed: g.peakFailed})
	fmt.Fprintf(b.stdout, "rung %-13s closed loop, %d conns: median %7.1f/s over %d episodes %.1f failed %d\n",
		g.name, connsFor(), rate, len(g.peaks), g.peaks, g.peakFailed)
}

// saturate drives one closed-loop episode of rung g and records its
// completed requests per second.
func (b *bench) saturate(c *client, g *rung, seed int64) error {
	samplers := make([]*sampler, len(c.conns))
	for k := range samplers {
		sm, err := b.sp.sampler(seed + int64(k)*7919)
		if err != nil {
			return err
		}
		samplers[k] = sm
	}
	start := time.Now()
	completed, failed := c.saturate(samplers, g.epLen)
	g.peaks = append(g.peaks, float64(completed)/time.Since(start).Seconds())
	g.peakTries += completed + failed
	g.peakFailed += failed
	return nil
}

// record adds a rung to the report and the run's request totals.
func (b *bench) record(name string, r rungResult) {
	b.attempted += r.attempted
	b.failed += r.failed
	b.rep.Rungs = append(b.rep.Rungs, rungReport{Name: name, Offered: r.rate, Achieved: r.achieved,
		Attempted: r.attempted, Failed: r.failed, P50: r.p50, P99: r.p99, P99All: r.p99All, Chunks: r.chunks,
		LagP99: r.lagP99, Backlog: r.backlog, Meets: r.meets})
	if r.lagP99 > lagLimit {
		b.rep.Flags = append(b.rep.Flags, fmt.Sprintf("loadgen behind at rung %s: lag p99 %.2f ms > %.1f ms", name, r.lagP99, lagLimit))
	}
	fmt.Fprintf(b.stdout, "rung %-13s offered %7.1f/s achieved %7.1f/s p50 %7.3f ms p99 %8.3f ms (whole rung %8.3f) failed %d backlog %d meets %v\n",
		name, r.rate, r.achieved, r.p50, r.p99, r.p99All, r.failed, r.backlog, r.meets)
}

// runGate applies the correctness gate to an episode's system; the
// run's gate passes only if every episode's does.
func (b *bench) runGate(sys *system, rung string) {
	err := gate(sys, b.sp.readRequests())
	switch {
	case err != nil && (b.rep.Gate == "" || b.rep.Gate == "pass"):
		b.rep.Gate = fmt.Sprintf("fail at rung %s: %v", rung, err)
	case err == nil && b.rep.Gate == "":
		b.rep.Gate = "pass"
	}
}

// share is the given fraction of --seconds.
func (b *bench) share(f float64) time.Duration {
	return time.Duration(f * b.o.seconds * float64(time.Second))
}

// untraced measures the end-to-end metrics. The light and loaded rungs
// get 30% of --seconds each and the visibility rung, at the loaded
// rate, 40%, their episodes interleaved. Only the visibility rung runs
// the poller, so the loaded rung's latency and CPU are the program's
// own.
func (b *bench) untraced(ctx context.Context) error {
	light := b.newRung("light", rungLight, b.sp.light, b.share(0.3), false, nil)
	loaded := b.newRung("loaded", rungLoaded, b.sp.loaded, b.share(0.3), false, nil)
	visible := b.newRung("visible", rungVisible, b.sp.loaded, b.share(0.4), true, nil)
	if err := b.runRungs(ctx, light, loaded, visible); err != nil {
		return err
	}
	b.put("light_p50_ms", light.r.p50)
	b.put("loaded_p50_ms", loaded.r.p50)
	fmt.Fprintf(b.stdout, "tail light_p99_ms %.4f ms, loaded_p99_ms %.4f ms\n", light.r.p99, loaded.r.p99)
	b.put("cpu_us_per_req", ratio(float64(loaded.delta.cpu)/1e3, float64(loaded.r.completed)))
	b.put("visible_p50_ms", visible.vis.typical(0.5))
	b.put("visible_p99_ms", visible.vis.typical(0.99))
	b.put("max_rss_mb", maxRSSMB())
	b.put("setup_s", median(b.setupTimes))
	b.put("transform_services_per_s", median(b.sweepRates))
	return nil
}

// traced measures the per-layer metrics: the loaded rate untraced, as
// the overhead baseline, and again with every span recorded, their
// episodes interleaved. Each gets a tenth of --seconds, which keeps the
// written spans to a few hundred thousand. A closed-loop peak rung
// follows.
func (b *bench) traced(ctx context.Context) error {
	o := obs.New()
	octx := obs.With(ctx, o)
	for start := time.Now(); time.Since(start) < b.share(0.05); {
		if _, err := sweep(octx); err != nil {
			return err
		}
	}
	b.putStages(o)

	// One observed set-up for the deploy span; the measured systems are
	// deployed without an obs context, exactly like the untraced run.
	od := obs.New()
	probe, err := setup(obs.With(ctx, od), b.sp, b.nextDir(), nil, false)
	if err != nil {
		return err
	}
	probe.stop()
	b.put("core.deploy_ms", spanTotal(od, "deploy"))

	// Both rungs run the visibility poller, so their difference is the
	// tracing alone.
	base := b.newRung("loaded", rungLoaded, b.sp.loaded, b.share(0.1), true, nil)
	traced := b.newRung("loaded-traced", rungLoaded, b.sp.loaded, b.share(0.1), true, newTracer())
	if err := b.runRungs(ctx, base, traced); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(b.o.out, fmt.Sprintf("%s-seed%d.spans.jsonl", b.sp.name, b.o.seed)), traced.spans); err != nil {
		return err
	}
	lt, err := attribute(traced.spans)
	if err != nil {
		return err
	}
	b.putLayers(lt, traced)
	b.put("client.loaded_p99_ms", base.r.p99)

	peak := b.newRung("peak", rungPeak, 0, b.share(0.2), false, nil)
	peak.closed = true
	if err := b.runRungs(ctx, peak); err != nil {
		return err
	}
	b.put("client.peak_rps", median(peak.peaks))
	b.put("trace.overhead_p50_ms", traced.r.p50-base.r.p50)
	b.put("trace.overhead_p99_ms", traced.r.p99-base.r.p99)
	return nil
}
