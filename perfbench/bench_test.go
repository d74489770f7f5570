package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of ../BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the correctness gate passes and every metric BENCHMARK.json names is
// emitted with its unit.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		w, err := workloadByName(cw.Name)
		if err != nil {
			t.Fatal(err)
		}
		// Small passes keep the race-detector run short.
		w.gateN, w.chunk = 1024, 512
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			var out bytes.Buffer
			res, err := bench(config{w: w, seed: 7, seconds: 0.2, traced: traced, traceOut: t.TempDir(), setups: 1}, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if strings.Contains(out.String(), " FAIL ") {
				t.Errorf("%s traced=%v: a check failed\n%s", w.name, traced, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet-train", "--trace", "2"},
		{"--workload", "fleet-train", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q; want a non-zero code and no result", args, code, out.String())
		}
	}
}

func TestAUC(t *testing.T) {
	for _, tc := range []struct {
		scores []float64
		labels []int
		want   float64
	}{
		{[]float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1}, 1},
		{[]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}, 0},
		{[]float64{0.5, 0.5, 0.5, 0.5}, []int{0, 1, 0, 1}, 0.5},
		{[]float64{0.1, 0.4, 0.35, 0.8}, []int{0, 0, 1, 1}, 0.75},
	} {
		if got := auc(tc.scores, tc.labels); got != tc.want {
			t.Errorf("auc(%v, %v) = %v, want %v", tc.scores, tc.labels, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.99: 10, 0.1: 1, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
