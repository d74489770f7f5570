package main

import (
	"context"
	"math"
	"time"

	"liveupdate"
)

// shardServer is the sharded, batch-capable surface Drive coalesces through.
// The fleet and the wire client both provide it.
type shardServer interface {
	liveupdate.Server
	NumShards() int
	ShardOf(liveupdate.Sample) int
	ServeShard(int, liveupdate.Sample) (liveupdate.Response, error)
	ServeShardBatch(int, []liveupdate.Sample, []liveupdate.Response) error
}

// call is one serve call Drive issued, timed from outside the server.
type call struct {
	start, dur int64 // nanoseconds since the probe's epoch
	n          int32 // requests carried
	ticks      int32 // train ticks the replica ran inside the call
	adapts     int32 // adaptation passes (one PCA each) inside the call
	pruned     int32 // adapter rows pruned inside the call
}

// lane is one shard's record. Drive gives each shard to exactly one worker
// and waits for its workers before returning, so a lane needs no lock.
type lane struct {
	calls  []call
	probs  []float64 // kept only when probe.keep is set
	labels []int
	bad    int // probabilities that are not finite or lie outside [0,1]
	errs   int // samples in calls that returned an error
}

// probe wraps the driven server and times every call the driver makes into
// it. With split set (in-process fleet only) it also reads the serving
// replica's public training counters before and after each call, outside
// the timed interval, to attribute train-tick and adaptation time.
type probe struct {
	inner shardServer
	tel   *liveupdate.Telemetry
	fleet *liveupdate.Cluster
	split bool
	keep  bool
	epoch time.Time
	lanes []lane
}

func newProbe(t *target, epoch time.Time, split, keep bool) *probe {
	inner := t.srv.(shardServer)
	p := &probe{
		inner: inner,
		tel:   t.tel,
		fleet: t.fleet,
		split: split && t.fleet != nil,
		keep:  keep,
		epoch: epoch,
		lanes: make([]lane, inner.NumShards()),
	}
	for i := range p.lanes {
		p.lanes[i].calls = make([]call, 0, 1<<14)
	}
	return p
}

func (p *probe) Stats() liveupdate.Stats          { return p.inner.Stats() }
func (p *probe) NumShards() int                   { return len(p.lanes) }
func (p *probe) ShardOf(s liveupdate.Sample) int  { return p.inner.ShardOf(s) }
func (p *probe) Telemetry() *liveupdate.Telemetry { return p.tel }
func (p *probe) Serve(s liveupdate.Sample) (liveupdate.Response, error) {
	return p.ServeShard(p.ShardOf(s), s)
}

// BindContext hands the drive context to a context-aware inner server (the
// wire client), as Drive would without the probe in between.
func (p *probe) BindContext(ctx context.Context) {
	if cb, ok := p.inner.(interface{ BindContext(context.Context) }); ok {
		cb.BindContext(ctx)
	}
}

func (p *probe) ServeShard(shard int, s liveupdate.Sample) (liveupdate.Response, error) {
	var resp liveupdate.Response
	var err error
	p.timed(shard, 1, func() { resp, err = p.inner.ServeShard(shard, s) })
	if err != nil {
		p.lanes[shard].errs++
	} else {
		p.record(shard, s, resp)
	}
	return resp, err
}

func (p *probe) ServeShardBatch(shard int, samples []liveupdate.Sample, resps []liveupdate.Response) error {
	var err error
	p.timed(shard, len(samples), func() { err = p.inner.ServeShardBatch(shard, samples, resps) })
	if err != nil {
		p.lanes[shard].errs += len(samples)
		return err
	}
	for i := range resps {
		p.record(shard, samples[i], resps[i])
	}
	return nil
}

func (p *probe) timed(shard, n int, serve func()) {
	var before counters
	if p.split {
		before = readCounters(p.fleet.Replica(shard))
	}
	t0 := time.Now()
	serve()
	t1 := time.Now()
	c := call{start: int64(t0.Sub(p.epoch)), dur: int64(t1.Sub(t0)), n: int32(n)}
	if p.split {
		after := readCounters(p.fleet.Replica(shard))
		c.ticks = int32(after.ticks - before.ticks)
		c.adapts = int32(after.adapts - before.adapts)
		c.pruned = int32(after.pruned - before.pruned)
	}
	l := &p.lanes[shard]
	l.calls = append(l.calls, c)
}

func (p *probe) record(shard int, s liveupdate.Sample, r liveupdate.Response) {
	l := &p.lanes[shard]
	if math.IsNaN(r.Prob) || r.Prob < 0 || r.Prob > 1 {
		l.bad++
	}
	if p.keep {
		l.probs = append(l.probs, r.Prob)
		l.labels = append(l.labels, s.Label)
	}
}

// counters are one replica's monotone training counters.
type counters struct {
	ticks          uint64
	adapts, pruned int
}

// readCounters reads a replica's train-tick and adapter counters. The
// adapter counters change only inside a train tick, under the node lock, so
// they are read under the same lock.
func readCounters(sys *liveupdate.System) counters {
	if sys == nil {
		return counters{}
	}
	c := counters{ticks: sys.TrainSteps()}
	sys.Lock()
	for _, a := range sys.LoRA.Adapters {
		c.adapts += a.Adaptations()
		c.pruned += a.PrunedTotal()
	}
	sys.Unlock()
	return c
}

// totals sums the lanes.
func (p *probe) totals() (calls, served, errs, bad int) {
	for i := range p.lanes {
		l := &p.lanes[i]
		calls += len(l.calls)
		for _, c := range l.calls {
			served += int(c.n)
		}
		errs += l.errs
		bad += l.bad
	}
	served -= errs
	return calls, served, errs, bad
}
