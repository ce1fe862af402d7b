package main

import (
	"fmt"
	"math/rand"

	"repro/internal/httpapp"
	"repro/internal/workload"
)

// mixEntry is one service of a workload's request mix: the subject
// service's route path and its share of the arrivals.
type mixEntry struct {
	method, path string
	weight       float64
}

// spec is one serve workload: a subject, the services its developer
// keeps at the cloud, the traffic mix the load generator draws from, and
// the frozen rates of its light and loaded rungs.
type spec struct {
	name    string
	subject workload.Subject
	// cloudOnly names the services (capture.Service.Name) the Consult
	// Developer step rejects for eventual consistency: they are not
	// replicated, so edge fronts forward them to the cloud.
	cloudOnly map[string]bool
	mix       []mixEntry
	// light and loaded are offered rates in req/s.
	light, loaded float64
}

// Rung positions, which seed each rung's arrivals: the light rung, the
// loaded rung, the visibility rung (at the loaded rate) and the
// closed-loop peak rung.
const (
	rungLight = iota
	rungLoaded
	rungVisible
	rungPeak
)

// bookwormCloudOnly keeps catalog inserts at the cloud: addBook takes
// max(id)+1, so two edges adding a book within one sync interval would
// both take the same id. It makes addBook the mixes' forwarded service.
var bookwormCloudOnly = map[string]bool{"POST /books": true}

// specs are the serve workloads. Their light and loaded rates were
// chosen once on a 2-CPU shared VM and are frozen. The host's capacity
// for a workload (the rate where p99 crosses the 20 ms limit) swings
// between runs with the load of its neighbours (about 3x for
// bookworm-read), so the light and loaded rungs sit at 0.25 and 0.6 of
// the lowest capacity seen.
var specs = []spec{
	{
		name:      "bookworm-read",
		subject:   workload.Bookworm(),
		cloudOnly: bookwormCloudOnly,
		mix: []mixEntry{
			{"GET", "/books", 0.35},
			{"GET", "/books/:id", 0.40},
			{"GET", "/popular", 0.20},
			{"POST", "/checkout", 0.025},
			{"POST", "/return", 0.025},
		},
		light: 1000, loaded: 2400,
	},
	{
		name:      "bookworm-write",
		subject:   workload.Bookworm(),
		cloudOnly: bookwormCloudOnly,
		mix: []mixEntry{
			{"GET", "/books", 0.15},
			{"GET", "/books/:id", 0.20},
			{"GET", "/popular", 0.15},
			{"POST", "/checkout", 0.22},
			{"POST", "/return", 0.22},
			{"POST", "/books", 0.06},
		},
		light: 150, loaded: 360,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// service resolves a mix entry to the subject's service index.
func (s spec) service(m mixEntry) (int, error) {
	for k, svc := range s.subject.Services {
		if svc.Route.Method == m.method && svc.Route.Path == m.path {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%s: no service %s %s", s.name, m.method, m.path)
}

// sampler draws requests from a workload's mix, deterministically per
// seed.
type sampler struct {
	subject workload.Subject
	cum     []float64
	svc     []int
	rng     *rand.Rand
	n       int
}

func (s spec) sampler(seed int64) (*sampler, error) {
	sm := &sampler{subject: s.subject, rng: rand.New(rand.NewSource(seed))}
	total := 0.0
	for _, m := range s.mix {
		k, err := s.service(m)
		if err != nil {
			return nil, err
		}
		total += m.weight
		sm.cum = append(sm.cum, total)
		sm.svc = append(sm.svc, k)
	}
	for i := range sm.cum {
		sm.cum[i] /= total
	}
	return sm, nil
}

// next returns the next request and whether its service mutates state.
func (sm *sampler) next() (*httpapp.Request, bool) {
	u := sm.rng.Float64()
	k := sm.svc[len(sm.svc)-1]
	for i, c := range sm.cum {
		if u < c {
			k = sm.svc[i]
			break
		}
	}
	svc := sm.subject.Services[k]
	sm.n++
	return svc.Gen(sm.rng, sm.n), svc.Mutates
}

// readRequests returns the gate's replay set: a few requests for every
// read-only service of the mix.
func (s spec) readRequests() []*httpapp.Request {
	var out []*httpapp.Request
	for _, m := range s.mix {
		k, err := s.service(m)
		if err != nil || s.subject.Services[k].Mutates {
			continue
		}
		for i := 0; i < 3; i++ {
			out = append(out, s.subject.SampleRequest(k, i, 7))
		}
	}
	return out
}
