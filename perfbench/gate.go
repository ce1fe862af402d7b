package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapp"
)

// settleBudget bounds the wall-clock wait for synchronization to
// quiesce after load stops.
const settleBudget = 15 * time.Second

// gate is the end-of-run correctness check: after sync settles every
// replica must have converged, serve byte-identical answers to the
// workload's reads, and show no mirror failure, no reconnect and no
// change applied that was never received.
func gate(s *system, reads []*httpapp.Request) error {
	dep := s.dep
	dep.SettleSync(settleBudget)
	if !dep.Converged() {
		return fmt.Errorf("replicas did not converge within %v", settleBudget)
	}
	servers := []*cluster.Server{dep.Cloud}
	for _, e := range dep.Edges {
		servers = append(servers, e.Server)
	}
	for _, req := range reads {
		if !s.isReplicated(req) {
			continue
		}
		var want []byte
		for i, srv := range servers {
			resp, _, err := srv.Invoke(req.Clone())
			if err != nil {
				return fmt.Errorf("replay %s %s at %s: %w", req.Method, req.Path, srv.Name, err)
			}
			if i == 0 {
				want = resp.Body
			} else if !bytes.Equal(resp.Body, want) {
				return fmt.Errorf("replay %s %s: %s answered %q, cloud %q", req.Method, req.Path, srv.Name, resp.Body, want)
			}
		}
	}
	if n, err := dep.CloudBinding.ApplyErrors(); n > 0 {
		return fmt.Errorf("cloud binding: %d apply errors, first: %v", n, err)
	}
	ms := dep.TCPMaster.Stats()
	if ms.ChangesApplied > ms.ChangesRecv {
		return fmt.Errorf("cloud applied %d changes but received %d", ms.ChangesApplied, ms.ChangesRecv)
	}
	for _, e := range dep.Edges {
		if n, err := e.Binding.ApplyErrors(); n > 0 {
			return fmt.Errorf("%s binding: %d apply errors, first: %v", e.Name, n, err)
		}
		if r := e.TCP.Status().Reconnects; r > 0 {
			return fmt.Errorf("%s reconnected %d times", e.Name, r)
		}
		st := e.TCP.Stats()
		if st.ChangesApplied > st.ChangesRecv {
			return fmt.Errorf("%s applied %d changes but received %d", e.Name, st.ChangesApplied, st.ChangesRecv)
		}
	}
	return nil
}
