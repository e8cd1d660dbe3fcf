package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each answers correctly and reports exactly the metrics, with the
// units, that BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bs.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bs.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	var names []string
	for _, w := range bs.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(names), len(specs))
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--work", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				var got []string
				for n, m := range res.Metrics {
					got = append(got, n)
					if u, ok := want[trace][n]; !ok || u != m.Unit {
						t.Errorf("metric %s (%s) not declared with that unit in BENCHMARK.json", n, m.Unit)
					}
				}
				if len(got) != len(want[trace]) {
					sort.Strings(got)
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d: %v", len(got), len(want[trace]), got)
				}
			})
		}
	}
}
