package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layerMetrics computes the per-layer metrics of a traced run. Timings come
// from the traced timed pass: the program's stage spans (Drive's Stages)
// and the benchmark's own per-call timings split by the public training
// counters. Decision and virtual-time counters come from the fixed-size
// traced gate pass, so they do not depend on wall speed.
func layerMetrics(w workload, timed, untraced, traced *pass) ([]named, error) {
	macs, err := mlpMACs()
	if err != nil {
		return nil, err
	}
	calls, _, _, _ := timed.probe.totals()
	busyNs := 0.0
	for _, d := range callDurations(timed.probe) {
		busyNs += d
	}
	sp := splitCalls(timed.probe)

	meanUs := func(stage string) float64 {
		n, ns := timed.stage(stage)
		return div(float64(ns), float64(n)) / 1e3
	}
	stageNs := func(stage string) float64 { _, ns := timed.stage(stage); return float64(ns) }
	fwdN, fwdNs := timed.stage("forward")
	pubN, _ := timed.stage("sync_publish")

	// Stage spans that run inside a timed serve call. In-process, routing
	// runs in the driver's sequencer and the async sync publish on the
	// fleet's pipeline goroutine, both outside the calls; behind the
	// gateway the server routes each sample of a wire batch inside the call.
	attributed := stageNs("forward") + stageNs("commit")
	if w.wire {
		attributed += stageNs("route") + stageNs("queue_wait")
	}

	gf := traced.final
	var rankSum float64
	for _, r := range gf.Replicas {
		rankSum += float64(r.LoRARank)
	}
	acc, done := wireLedger(timed.final)
	var shed uint64
	for _, ep := range timed.final.Wire {
		shed += ep.Shed
	}

	return []named{
		{"core.calls", float64(calls), "count"},
		{"core.busy_ms", busyNs / 1e6, "ms"},
		{"core.plain_call.median_us", sp.plainMedianNs / 1e3, "us"},
		{"core.train_tick.count", float64(sp.ticks), "count"},
		{"core.train_tick.excess_ms", sp.tickExcessNs / 1e6, "ms"},
		{"core.commit.mean_us", meanUs("commit"), "us"},
		{"lora.adapt.count", float64(sp.adaptCalls), "count"},
		{"lora.adapt.excess_ms", sp.adaptExcessNs / 1e6, "ms"},
		{"lora.prune.rows", float64(traced.pruned), "count"},
		{"lora.rank", div(rankSum, float64(len(gf.Replicas))), "rank"},
		{"lora.active_rows", float64(gf.LoRAHotRows), "count"},
		{"lora.mem_overhead", gf.MemoryOverhead, "ratio"},
		{"tensor.pca.calls", float64(traced.adapts), "count"},
		{"tensor.mlp.gflops", div(2*float64(macs)*float64(timed.served), float64(fwdNs)), "GFLOP/s"},
		{"serving.forward.count", float64(fwdN), "count"},
		{"serving.forward.mean_us", meanUs("forward"), "us"},
		{"numasim.virt_p99_ms", gf.P99 * 1e3, "ms"},
		{"numasim.l3_hit.inference", gf.InferenceHitRatio, "ratio"},
		{"numasim.l3_hit.training", gf.TrainingHitRatio, "ratio"},
		{"cluster.route.mean_us", meanUs("route"), "us"},
		{"cluster.syncs", float64(gf.Syncs), "count"},
		{"cluster.sync_publish.count", float64(pubN), "count"},
		{"cluster.sync_publish.mean_us", meanUs("sync_publish"), "us"},
		{"cluster.sync.virtual_s", gf.SyncSeconds, "s"},
		{"collective.payload_mb", float64(gf.SyncBytes) / 1e6, "MB"},
		{"driver.batch_fill", div(float64(timed.served), float64(timed.batches)*float64(w.batch)), "ratio"},
		{"driver.busy_ratio", div(timed.busy.Seconds(), workers*timed.elapsed.Seconds()), "ratio"},
		{"netserve.accepted", float64(acc), "count"},
		{"netserve.completed", float64(done), "count"},
		{"netserve.shed", float64(shed), "count"},
		{"netserve.queue_wait.mean_us", meanUs("queue_wait"), "us"},
		{"netclient.transport_retries", float64(timed.retries), "count"},
		{"netclient.shed429", float64(timed.shed429), "count"},
		{"netclient.gave_up", float64(timed.gaveUp), "count"},
		{"obs.trace_overhead", 1 - div(traced.qps(), untraced.qps()), "ratio"},
		{"accounting.residual", 1 - div(attributed, busyNs), "ratio"},
	}, nil
}

// callSplit attributes serve-call time to the train tick and to rank
// adaptation. A call is a tick (adapt) call when the serving replica's
// TrainSteps (summed Adaptations) advanced across it; plain calls advanced
// neither. A split's excess is its summed call time minus that many median
// plain calls.
type callSplit struct {
	plainMedianNs float64
	ticks         int // train ticks run inside timed calls
	tickExcessNs  float64
	adaptCalls    int
	adaptExcessNs float64
}

func splitCalls(p *probe) callSplit {
	var plain []float64
	for i := range p.lanes {
		for _, c := range p.lanes[i].calls {
			if c.ticks == 0 && c.adapts == 0 {
				plain = append(plain, float64(c.dur))
			}
		}
	}
	s := callSplit{plainMedianNs: median(plain)}
	for i := range p.lanes {
		for _, c := range p.lanes[i].calls {
			if c.ticks > 0 {
				s.ticks += int(c.ticks)
				s.tickExcessNs += float64(c.dur) - s.plainMedianNs
			}
			if c.adapts > 0 {
				s.adaptCalls++
				s.adaptExcessNs += float64(c.dur) - s.plainMedianNs
			}
		}
	}
	return s
}

// span is one benchmark-side phase (set-up build, pass) for the trace.
type span struct {
	name       string
	start, dur time.Duration // since the run's epoch
}

// maxTraceCalls caps the serve-call spans written per trace; a batched
// workload issues about a million calls in 20 s.
const maxTraceCalls = 1 << 18

// writeChromeTrace writes the run's phases and the serve calls of the timed
// pass (each shard's first maxTraceCalls/shards) as Chrome trace-event JSON,
// loadable in ui.perfetto.dev: phases on thread 0, each shard's calls on
// thread shard+1. It returns the path and the number of calls written.
func writeChromeTrace(cfg config, timed *pass, phases []span) (string, int, error) {
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	us := func(d int64) float64 { return float64(d) / 1e3 }
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	sep := ""
	for _, ph := range phases {
		fmt.Fprintf(bw, `%s{"name":%q,"ph":"X","pid":1,"tid":0,"ts":%.3f,"dur":%.3f}`,
			sep, ph.name, us(int64(ph.start)), us(int64(ph.dur)))
		sep = ",\n"
	}
	name := "serve"
	if cfg.w.batch > 1 {
		name = "serve_batch"
	}
	written := 0
	perShard := maxTraceCalls / len(timed.probe.lanes)
	for shard := range timed.probe.lanes {
		calls := timed.probe.lanes[shard].calls
		if len(calls) > perShard {
			calls = calls[:perShard]
		}
		written += len(calls)
		for _, c := range calls {
			fmt.Fprintf(bw, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"n":%d,"ticks":%d,"adapts":%d}}`,
				sep, name, shard+1, us(c.start), us(c.dur), c.n, c.ticks, c.adapts)
			sep = ",\n"
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		return "", 0, err
	}
	return path, written, f.Close()
}
