// Command perfbench is the repository benchmark: it builds a liveupdate
// fleet for one workload, drives it closed-loop through the public API,
// times every serve call from outside the server, checks the served
// outputs, and prints one JSON result line.
//
//	go run . --workload fleet-train --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the same workload with stage tracing on and prints the per-layer
// metrics, writing the benchmark's own spans as Chrome trace JSON under
// .bench_build/traces. NOTES.md maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: fleet-train, fleet-infer or wire-infer")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "wall seconds of the timed pass")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, traceOut: traceDir, setups: setupBuilds}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

const (
	setupBuilds = 9                     // server builds timed for setup_s
	traceDir    = ".bench_build/traces" // Chrome traces, relative to the working directory
)

type config struct {
	w        workload
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	setups   int
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
