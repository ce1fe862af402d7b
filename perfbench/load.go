package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/httpapp"
)

// latencyLimit is the p99 client latency a rung must meet.
const latencyLimit = 20 * time.Millisecond

// arrival is one scheduled request.
type arrival struct {
	due   time.Duration // offset from the episode's start
	conn  int
	write bool
	req   *httpapp.Request
}

// outcome is what the client saw for one arrival.
type outcome struct {
	latency time.Duration // completion − due
	done    time.Duration // completion, offset from the episode's start
	// lag is how late the generator issued a request whose connection
	// was idle at its due time (-1 when the connection was still busy).
	lag    time.Duration
	failed bool
}

// client is the load generator: keep-alive HTTP connections, one per
// worker, spread round-robin over the edge fronts.
type client struct {
	conns []*http.Client
	urls  []string
}

func newClient(sys *system, n int) *client {
	c := &client{}
	for i := 0; i < n; i++ {
		c.conns = append(c.conns, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
		c.urls = append(c.urls, sys.edge[i%len(sys.edge)].url)
	}
	return c
}

func (c *client) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

// schedule draws a seeded Poisson arrival sequence at rate req/s over
// dur, each request from the workload mix on a uniformly drawn
// connection.
func (c *client) schedule(sm *sampler, rng *rand.Rand, rate float64, dur time.Duration) ([]arrival, error) {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out, nil
		}
		req, write := sm.next()
		if len(req.Query) > 0 {
			return nil, fmt.Errorf("%s %s: query parameters are not sent", req.Method, req.Path)
		}
		out = append(out, arrival{due: due, conn: rng.Intn(len(c.conns)), write: write, req: req})
	}
}

// run issues the arrivals open-loop: each connection's worker sends its
// requests in due order, sleeping until each is due when idle. onWrite,
// when set, is called on the worker with the response time of every
// write an edge front tagged with a visibility id.
func (c *client) run(arr []arrival, onWrite func(id string, at time.Time)) []outcome {
	out := make([]outcome, len(arr))
	perConn := make([][]int, len(c.conns))
	for i, a := range arr {
		perConn[a.conn] = append(perConn[a.conn], i)
	}
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for k := range c.conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h := c.conns[k]
			for _, i := range perConn[k] {
				a := arr[i]
				due := start.Add(a.due)
				lag := time.Duration(-1)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					lag = time.Since(due)
				}
				failed, id := send(h, c.urls[k], a.req)
				now := time.Now()
				out[i] = outcome{latency: now.Sub(due), done: now.Sub(start), lag: lag, failed: failed}
				if id != "" && onWrite != nil {
					onWrite(id, now)
				}
			}
		}(k)
	}
	wg.Wait()
	return out
}

// saturate drives the connections closed loop for dur: each sends its
// next request, drawn from its own sampler, as soon as the response to
// the previous one arrives. It returns the requests completed and
// failed; requests in flight at dur complete and count.
func (c *client) saturate(samplers []*sampler, dur time.Duration) (completed, failed int) {
	deadline := time.Now().Add(dur)
	counts := make([][2]int, len(c.conns))
	var wg sync.WaitGroup
	for k := range c.conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req, _ := samplers[k].next()
				if f, _ := send(c.conns[k], c.urls[k], req); f {
					counts[k][1]++
				} else {
					counts[k][0]++
				}
			}
		}(k)
	}
	wg.Wait()
	for _, n := range counts {
		completed += n[0]
		failed += n[1]
	}
	return completed, failed
}

// send performs one request; a transport error or a 5xx is a failure.
// It also returns the response's visibility id, if any.
func send(h *http.Client, base string, r *httpapp.Request) (failed bool, id string) {
	req, err := http.NewRequest(r.Method, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return true, ""
	}
	resp, err := h.Do(req)
	if err != nil {
		return true, ""
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err != nil || resp.StatusCode >= 500, resp.Header.Get(writeIDHeader)
}

// episode is one stretch of a rung, served by its own system.
type episode struct {
	arr []arrival
	out []outcome
	dur time.Duration
}

// rungResult summarizes one rung.
type rungResult struct {
	rate              float64 // offered, req/s
	attempted, failed int
	completed         int
	writes            int       // completed writes, at an edge or the cloud
	achieved          float64   // completed req/s over the rung
	p50, p99          float64   // client latency, ms, per chunked
	p99All            float64   // p99 over the whole rung, ms
	chunks            []float64 // p99 of each chunk, in due order, ms
	lagP99            float64   // generator lag, ms
	backlog           int       // most requests due but not complete at an episode's end
	meets             bool
}

func summarize(rate float64, eps []episode, conns int) rungResult {
	r := rungResult{rate: rate}
	var lat, lags, backlogs []float64
	var groups [][]float64
	var total time.Duration
	for _, ep := range eps {
		total += ep.dur
		backlog := 0
		first := len(lat)
		for i, o := range ep.out {
			r.attempted++
			// A failed request misses the limit: it enters the tail as +Inf.
			if o.failed {
				r.failed++
				lat = append(lat, math.Inf(1))
			} else {
				r.completed++
				lat = append(lat, ms(o.latency))
				if ep.arr[i].write {
					r.writes++
				}
			}
			if o.lag >= 0 {
				lags = append(lags, ms(o.lag))
			}
			if ep.arr[i].due < ep.dur && o.done > ep.dur {
				backlog++
			}
		}
		backlogs = append(backlogs, float64(backlog))
		groups = append(groups, lat[first:len(lat):len(lat)])
	}
	r.backlog = int(median(backlogs))
	r.p50, _ = chunked(groups, 0.50, chunkSize)
	r.p99, r.chunks = chunked(groups, 0.99, chunkSize)
	r.p99All = quantile(lat, 0.99)
	r.lagP99 = quantile(lags, 0.99)
	r.achieved = float64(r.completed) / total.Seconds()
	// No growing backlog: at a typical episode's end no more requests
	// are outstanding than arrive within the latency limit, plus one per
	// connection in service.
	allowed := int(math.Ceil(rate*latencyLimit.Seconds())) + conns
	r.meets = r.failed == 0 && r.p99 <= ms(latencyLimit) && r.backlog <= allowed
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
