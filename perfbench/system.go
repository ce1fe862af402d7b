package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/httpapp"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// syncInterval is the TCP sync period. The deployment default (500 ms)
// would make write visibility nothing but the ticker's period.
const syncInterval = 20 * time.Millisecond

// edges is the number of edge replicas behind their own HTTP fronts.
const edges = 2

// system is one deployed subject: the three-tier deployment plus a
// net/http front on loopback for the cloud and for each edge.
type system struct {
	dep  *core.Deployment
	dir  string
	tr   *tracer     // nil in untraced runs
	vis  *visibility // nil unless write visibility is measured
	edge []*front
	// cloud is the cloud's front; edge fronts forward to it.
	cloud *front
	// replicated holds the routes (Route.String()) served at the edge.
	replicated map[string]bool
	fwd        *http.Client

	// edgeRequests and forwarded count edge-front requests and those
	// the edge front sent on to the cloud.
	edgeRequests, forwarded atomic.Int64
}

// front is one HTTP listener.
type front struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startFront(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("front listen: %w", err)
	}
	f := &front{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return f, nil
}

func (f *front) close() {
	_ = f.srv.Close()
	<-f.done
}

// transform runs capture and the transform pipeline over a subject's
// regression vectors, as the CLI does.
func transform(ctx context.Context, sub workload.Subject) (*core.Result, error) {
	return core.TransformSubjectTrafficContext(ctx, sub.Name, sub.Source, sub.Routes(), sub.RegressionVectors(), 0)
}

// transformServed is transform with a Consult Developer step that
// rejects eventual consistency for the workload's cloud-only services.
func transformServed(ctx context.Context, sp spec) (*core.Result, error) {
	sub := sp.subject
	app, err := httpapp.New(sub.Name, sub.Source, sub.Routes())
	if err != nil {
		return nil, err
	}
	records, err := core.CaptureTrafficContext(ctx, app, sub.RegressionVectors())
	if err != nil {
		return nil, err
	}
	return core.TransformContext(ctx, core.Input{
		Name: sub.Name, Source: sub.Source, Routes: sub.Routes(), Records: records,
		Consult: func(svc capture.Service, _ analysis.StateUnits) bool { return !sp.cloudOnly[svc.Name()] },
	})
}

// setup transforms the workload's subject, deploys it over TCP sync
// with durable FsyncAlways stores under dir, and starts the fronts.
// Write visibility (when vis is set) and then tr (when not nil) have
// their hooks installed before any front accepts traffic; tr's
// AfterInvoke span therefore includes visibility's heads read.
func setup(ctx context.Context, sp spec, dir string, tr *tracer, vis bool) (*system, error) {
	sub := sp.subject
	res, err := transformServed(ctx, sp)
	if err != nil {
		return nil, fmt.Errorf("transform %s: %w", sub.Name, err)
	}
	cfg := core.DefaultDeployConfig()
	cfg.EdgeSpecs = make([]cluster.DeviceSpec, edges)
	for i := range cfg.EdgeSpecs {
		cfg.EdgeSpecs[i] = cluster.RPi4Spec
	}
	cfg.Transport = core.TransportTCP
	cfg.SyncInterval = syncInterval
	cfg.Durability = core.DurabilityConfig{Dir: dir, Fsync: durable.FsyncAlways}
	dep, err := core.DeployContext(ctx, simclock.New(), res, cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", sub.Name, err)
	}
	s := &system{
		dep: dep, dir: dir, tr: tr,
		replicated: replicatedRoutes(res),
		fwd: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			DisableCompression:  true,
		}},
	}
	if vis {
		s.vis = newVisibility(dep)
	}
	if tr != nil {
		tr.install(dep)
	}
	if s.cloud, err = startFront(http.HandlerFunc(s.serveCloud)); err != nil {
		s.stop()
		return nil, err
	}
	for i, e := range dep.Edges {
		f, err := startFront(s.edgeHandler(i, e))
		if err != nil {
			s.stop()
			return nil, err
		}
		s.edge = append(s.edge, f)
	}
	return s, nil
}

// stop closes the fronts, stops the deployment and removes its data.
func (s *system) stop() {
	for _, f := range s.edge {
		f.close()
	}
	if s.cloud != nil {
		s.cloud.close()
	}
	s.fwd.CloseIdleConnections()
	s.dep.Stop()
	_ = os.RemoveAll(s.dir)
}

// replicatedRoutes maps the transform's replicated service names
// ("GET /books/:p1") onto the app's route table, comparing method and
// path shape with any ":param" segment as a wildcard.
func replicatedRoutes(res *core.Result) map[string]bool {
	out := map[string]bool{}
	for _, name := range res.ReplicatedServiceNames() {
		method, pattern, ok := strings.Cut(name, " ")
		if !ok {
			continue
		}
		for _, rt := range res.Routes {
			if strings.EqualFold(rt.Method, method) && sameShape(rt.Path, pattern) {
				out[rt.String()] = true
			}
		}
	}
	return out
}

func sameShape(a, b string) bool {
	as := strings.Split(strings.Trim(a, "/"), "/")
	bs := strings.Split(strings.Trim(b, "/"), "/")
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if strings.HasPrefix(as[i], ":") || strings.HasPrefix(bs[i], ":") {
			continue
		}
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func (s *system) isReplicated(req *httpapp.Request) bool {
	rt, _, err := s.dep.Cloud.App.Lookup(req.Method, req.Path)
	return err == nil && s.replicated[rt.String()]
}

// toRequest converts an HTTP request the way httpapp.App.ServeHTTP does.
func toRequest(r *http.Request) (*httpapp.Request, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	query := make(map[string]string, len(q))
	for k, vs := range q {
		if len(vs) > 0 {
			query[k] = vs[0]
		}
	}
	return &httpapp.Request{Method: r.Method, Path: r.URL.Path, Query: query, Body: body}, nil
}

// requestIDHeader carries the traced run's request id across the
// edge→cloud forward.
const requestIDHeader = "X-Request-Id"

func writeResponse(w http.ResponseWriter, resp *httpapp.Response, err error) {
	if err != nil {
		if errors.Is(err, httpapp.ErrNoRoute) {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body) // a client that hung up has nothing to report to
}

func (s *system) serveCloud(w http.ResponseWriter, r *http.Request) {
	span := s.tr.begin(r.Header.Get(requestIDHeader), nodeCloud)
	defer span.end()
	req, err := toRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	inv := span.child(spanInvoke)
	resp, _, err := s.dep.Cloud.Invoke(req)
	inv.end()
	writeResponse(w, resp, err)
}

// edgeHandler is edge i's front. It mirrors the remote proxy of
// core.Deployment.HandleAtEdge: replicated routes run on the edge's
// server, everything else — and every local failure — goes to the
// cloud's front.
func (s *system) edgeHandler(i int, e *core.EdgeReplica) http.HandlerFunc {
	node := nodeEdge0 + i
	return func(w http.ResponseWriter, r *http.Request) {
		s.edgeRequests.Add(1)
		span := s.tr.begin("", node)
		defer span.end()
		req, err := toRequest(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.isReplicated(req) {
			inv := span.child(spanInvoke)
			resp, _, err := e.Server.Invoke(req)
			inv.end()
			if s.vis != nil {
				if id := s.vis.claim(); id != "" {
					w.Header().Set(writeIDHeader, id)
				}
			}
			if err == nil {
				writeResponse(w, resp, nil)
				return
			}
		}
		s.forwarded.Add(1)
		fw := span.child(spanForward)
		s.forward(w, r.URL.RequestURI(), req, span.id())
		fw.end()
	}
}

// forward replays req at the cloud's front and relays the answer.
func (s *system) forward(w http.ResponseWriter, uri string, req *httpapp.Request, rid string) {
	out, err := http.NewRequest(req.Method, s.cloud.url+uri, bytes.NewReader(req.Body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if rid != "" {
		out.Header.Set(requestIDHeader, rid)
	}
	resp, err := s.fwd.Do(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}
