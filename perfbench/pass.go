package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"liveupdate"
)

// pass is one drive of a workload through a fresh server.
type pass struct {
	name    string
	probe   *probe
	target  *target
	final   liveupdate.Stats // server-side snapshot after the pass (and its drain)
	elapsed time.Duration    // summed wall time of the measured Drive calls
	cpu     time.Duration    // process user+sys CPU over the measured Drive calls
	served  uint64           // requests the measured Drive calls served
	batches uint64           // serve calls the measured Drive calls issued
	busy    time.Duration    // summed driver-lane time inside serve calls
	stages  map[string]liveupdate.DriveStageStat
	drives  int // requests handed to Drive, warm-up included
	asked   int // requests handed to the measured Drive calls

	shed429, retries, gaveUp uint64 // wire client counters
	adapts, pruned           int    // fleet adapter counters at the end
}

// qps is the pass's wall throughput.
func (p *pass) qps() float64 { return div(float64(p.served), p.elapsed.Seconds()) }

// run drives requests through the pass's target in Drive calls of `chunk`
// requests: first `warm` unmeasured ones, then measured ones until `fixed`
// requests were driven (fixed > 0) or `seconds` of wall time have passed.
func (p *pass) run(w workload, seed uint64, warm, fixed int, seconds float64) error {
	gen := liveupdate.NewWorkload(mustProfile(), seed)
	drive := func(n int) (liveupdate.DriveReport, error) {
		p.drives += n
		return liveupdate.Drive(p.probe, gen, liveupdate.DriveConfig{
			Requests: n, Concurrency: workers, BatchSize: w.batch, Seed: seed,
		})
	}
	for i := 0; i < warm; i++ {
		if _, err := drive(w.chunk); err != nil {
			return fmt.Errorf("%s warm-up: %w", p.name, err)
		}
	}
	p.probe.resetCalls()
	p.stages = map[string]liveupdate.DriveStageStat{}
	cpu0 := cpuTime()
	for {
		n := w.chunk
		if fixed > 0 {
			n = fixed - int(p.served)
			if n <= 0 {
				break
			}
		} else if p.elapsed.Seconds() >= seconds {
			break
		}
		p.asked += n
		rep, err := drive(n)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		p.elapsed += rep.Elapsed
		p.served += rep.Served
		p.batches += rep.Batches
		for _, ws := range rep.PerWorker {
			p.busy += ws.Busy
		}
		for _, st := range rep.Stages {
			agg := p.stages[st.Stage]
			agg.Stage = st.Stage
			agg.Count += st.Count
			agg.TotalNs += st.TotalNs
			p.stages[st.Stage] = agg
		}
		if rep.Served < uint64(n) {
			return fmt.Errorf("%s: drive served %d of %d requests", p.name, rep.Served, n)
		}
	}
	p.cpu = cpuTime() - cpu0
	return nil
}

// finish closes the pass's target (draining the gateway), snapshots the
// server-side statistics, the fleet's adapter counters and the wire client's
// counters, and releases the server so it does not outlive the pass.
func (p *pass) finish() {
	t := p.target
	if t.remote != nil {
		p.shed429, p.retries, p.gaveUp = t.remote.Shed429(), t.remote.TransportRetries(), t.remote.GaveUp()
	}
	t.close()
	p.final = t.server().Stats()
	if t.fleet != nil {
		for i := 0; i < replicas; i++ {
			c := readCounters(t.fleet.Replica(i))
			p.adapts += c.adapts
			p.pruned += c.pruned
		}
	}
	p.target, p.probe.inner, p.probe.fleet = nil, nil, nil
}

// stage returns one program stage's summed span count and time.
func (p *pass) stage(name string) (count uint64, totalNs int64) {
	st := p.stages[name]
	return st.Count, st.TotalNs
}

func newPass(name string, w workload, seed uint64, traced, split, keep bool, epoch time.Time) (*pass, error) {
	t, err := w.build(seed, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", name, err)
	}
	return &pass{name: name, target: t, probe: newProbe(t, epoch, split, keep)}, nil
}

func (p *probe) resetCalls() {
	for i := range p.lanes {
		p.lanes[i].calls = p.lanes[i].calls[:0]
	}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// settle collects garbage between phases so one phase's leftovers do not
// inflate the next phase's memory peak.
func settle() { runtime.GC() }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
