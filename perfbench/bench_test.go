package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at a tiny rate for two seconds, untraced
// and traced, and checks that the gate passes and that every metric of
// the mode is emitted with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			name := sp.name + "/untraced"
			want := endToEnd
			if traced {
				name, want = sp.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				res, err := run(context.Background(), options{
					workload: sp.name, seed: 1, seconds: 2, trace: traced, scale: 0.05, out: t.TempDir(),
				}, &log)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct {
					t.Fatalf("correctness gate failed:\n%s", log.String())
				}
				if res.Attempted < 1 {
					t.Fatalf("attempted %d requests", res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v (present %v), want unit %q", d.name, m, ok, d.unit)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := keys[k]; !ok || len(keys) != 4 {
						t.Errorf("result line %s lacks %q or has extra keys", line, k)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json names
// workloads this program runs and exactly the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(bj.Workloads))
	}
	for i, w := range bj.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
