package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// bench runs one workload at one seed:
//
//  1. set-up: `setups` server builds, timed for setup_s (untraced runs
//     only);
//  2. the untraced gate pass: gateN requests on a fresh server;
//  3. the timed pass: one warm-up Drive, then closed-loop Drives for
//     `seconds` of wall time on a fresh server, every serve call timed;
//  4. the traced gate pass: the same gateN requests on a fresh traced
//     server.
//
// The gate passes feed the correctness gate and the virtual-time, quality
// and memory metrics; a fixed request count keeps those independent of
// wall speed.
func bench(cfg config, out io.Writer) (result, error) {
	w := cfg.w
	epoch := time.Now()
	fmt.Fprintf(out, "# machine %s\n", machineFields())
	fmt.Fprintf(out, "# workload %s seed %d seconds %g trace %v: %s\n", w.name, cfg.seed, cfg.seconds, cfg.traced, w.why)

	var phases []span
	phase := func(name string, t0 time.Time) {
		phases = append(phases, span{name: name, start: t0.Sub(epoch), dur: time.Since(t0)})
	}

	var setupS float64
	if !cfg.traced {
		durs := make([]float64, cfg.setups)
		for i := range durs {
			t0 := time.Now()
			t, err := w.build(cfg.seed, false)
			if err != nil {
				return result{}, fmt.Errorf("setup: %w", err)
			}
			durs[i] = time.Since(t0).Seconds()
			phase("setup", t0)
			t.close()
			settle()
		}
		setupS = median(durs)
	}

	// The untraced gate pass runs first, so the memory peak covers set-up
	// and a fixed amount of serving, independent of wall speed.
	untraced, err := gatePass("gate-untraced", w, cfg.seed, false, epoch, phase)
	if err != nil {
		return result{}, err
	}
	memPeak := peakRSSMB()

	t0 := time.Now()
	timed, err := newPass("timed", w, cfg.seed, cfg.traced, cfg.traced, false, epoch)
	if err != nil {
		return result{}, err
	}
	phase("build:timed", t0)
	t0 = time.Now()
	if err := timed.run(w, cfg.seed, 1, 0, cfg.seconds); err != nil {
		return result{}, err
	}
	timed.finish()
	phase("drive:timed", t0)
	settle()

	traced, err := gatePass("gate-traced", w, cfg.seed, true, epoch, phase)
	if err != nil {
		return result{}, err
	}

	checks := gate(w, timed, untraced, traced)
	correct := true
	for _, c := range checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(out, "# check %-34s %s %s\n", c.name, status, c.detail)
	}

	attempted := timed.drives + untraced.drives + traced.drives
	failed := 0
	for _, p := range []*pass{timed, untraced, traced} {
		_, _, errs, _ := p.probe.totals()
		failed += errs + int(p.shed429+p.gaveUp)
	}
	if failed > attempted {
		failed = attempted
	}

	v := untraced.final
	fmt.Fprintf(out, "# virtual time (untraced gate pass): served %d, p99 %g ms, violations %d, train ticks %d, syncs %d\n",
		v.Served, v.P99*1e3, v.Violations, v.TrainSteps, v.Syncs)
	calls, _, _, _ := timed.probe.totals()
	fmt.Fprintf(out, "# timed pass: %d requests in %d serve calls (the call-latency samples) over %.3fs\n",
		timed.served, calls, timed.elapsed.Seconds())

	var ms []named
	if cfg.traced {
		ms, err = layerMetrics(w, timed, untraced, traced)
		if err != nil {
			return result{}, err
		}
		path, written, err := writeChromeTrace(cfg, timed, phases)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# chrome trace %s: %d of %d serve calls\n", path, written, calls)
	} else {
		ms = endToEnd(timed, untraced, setupS, memPeak, attempted, failed)
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range ms {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// gatePass drives gateN requests through a fresh server, keeping every
// served probability.
func gatePass(name string, w workload, seed uint64, traced bool, epoch time.Time, phase func(string, time.Time)) (*pass, error) {
	t0 := time.Now()
	p, err := newPass(name, w, seed, traced, false, true, epoch)
	if err != nil {
		return nil, err
	}
	if err := p.run(w, seed, 0, w.gateN, 0); err != nil {
		return nil, err
	}
	p.finish()
	phase(name, t0)
	settle()
	return p, nil
}

type named struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the metrics a user of the system sees, from the
// untraced timed pass and the untraced gate pass.
func endToEnd(timed, gate *pass, setupS, memPeak float64, attempted, failed int) []named {
	durs := callDurations(timed.probe)
	return []named{
		{"setup_s", setupS, "s"},
		{"throughput_rps", timed.qps(), "1/s"},
		{"call_p50_us", quantile(durs, 0.50) / 1e3, "us"},
		{"call_p99_us", quantile(durs, 0.99) / 1e3, "us"},
		{"cpu_ms_per_kreq", div(timed.cpu.Seconds()*1e3, float64(timed.served)/1e3), "ms"},
		{"mem_peak_mb", memPeak, "MB"},
		{"ok_ratio", 1 - div(float64(failed), float64(attempted)), "ratio"},
		{"online_auc", gateAUC(gate.probe), "auc"},
		{"sync_wire_mb", float64(gate.final.SyncWireBytes) / 1e6, "MB"},
	}
}

// callDurations returns every timed serve call's duration in ns, sorted.
func callDurations(p *probe) []float64 {
	var durs []float64
	for i := range p.lanes {
		for _, c := range p.lanes[i].calls {
			durs = append(durs, float64(c.dur))
		}
	}
	sort.Float64s(durs)
	return durs
}

func gateAUC(p *probe) float64 {
	var probs []float64
	var labels []int
	for i := range p.lanes {
		probs = append(probs, p.lanes[i].probs...)
		labels = append(labels, p.lanes[i].labels...)
	}
	return auc(probs, labels)
}
