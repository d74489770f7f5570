package main

import (
	"fmt"
	"net"
	"time"

	"liveupdate"
)

// workload is one traffic mix the benchmark drives. Every workload serves
// the criteo profile from a 4-replica hash-routed fleet with an
// asynchronous LoRA sync every 2 virtual seconds, closed-loop, from
// `workers` driver lanes.
type workload struct {
	name  string
	why   string
	train bool // co-located LoRA training on (the paper's system)
	batch int  // driver coalescing cap; 1 = unbatched
	wire  bool // serve through a loopback gateway and a Dial client

	gateN int // requests in each fixed-size gate pass
	chunk int // requests per Drive call in the timed pass
}

const (
	replicas  = 4
	syncEvery = 2 * time.Second
	workers   = 2 // driver lanes; at most nproc on the reference machine
	conns     = 2 // client connections for the wire workload
	profile   = "criteo"
)

var workloads = []workload{
	{
		name:  "fleet-train",
		why:   "the paper's system: 4-replica fleet, training on, unbatched, so train ticks, rank adaptation and real sync payloads dominate wall time",
		train: true, batch: 1,
		gateN: 48000, chunk: 4096,
	},
	{
		name:  "fleet-infer",
		why:   "Only-Infer baseline at batch 16: forward, commit, route and lane batching are the whole cost; a train-tick change must not move it",
		batch: 16,
		gateN: 96000, chunk: 16384,
	},
	{
		name:  "wire-infer",
		why:   "fleet-infer behind a loopback gateway via Dial(Conns: 2) on the binary batch path: isolates wire codec, transport and admission",
		batch: 16, wire: true,
		gateN: 48000, chunk: 8192,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// mustProfile returns the criteo profile every workload serves.
func mustProfile() liveupdate.Profile {
	p, err := liveupdate.ProfileByName(profile)
	if err != nil {
		panic(err) // the profile name is a constant of this program
	}
	return p
}

// target is one built server plus the handles the benchmark reads from.
type target struct {
	srv    liveupdate.Server   // what Drive drives: the fleet, or the wire client
	fleet  *liveupdate.Cluster // in-process fleet; nil behind a gateway
	gw     *liveupdate.Gateway // wire workloads only
	remote *liveupdate.RemoteServer
	tel    *liveupdate.Telemetry // nil when untraced
}

// server returns the server-side view: the fleet, or the gateway fronting it.
func (t *target) server() liveupdate.Server {
	if t.gw != nil {
		return t.gw
	}
	return t.srv
}

func (t *target) close() {
	if t.remote != nil {
		t.remote.Close()
	}
	if t.gw != nil {
		_ = t.gw.Close() // loopback listener; nothing to flush
	}
}

// build constructs the workload's server. Everything it does is set-up
// time: fleet construction, and for the wire workload the listener, the
// gateway and the client dial.
func (w workload) build(seed uint64, traced bool) (*target, error) {
	opts := []liveupdate.Option{
		liveupdate.WithProfile(mustProfile()),
		liveupdate.WithSeed(seed),
		liveupdate.WithReplicas(replicas),
		liveupdate.WithRouter(liveupdate.HashRouter),
		liveupdate.WithSyncEvery(syncEvery),
		liveupdate.WithSyncMode(liveupdate.SyncModeAsync),
		liveupdate.WithTraining(w.train),
	}
	if traced {
		opts = append(opts, liveupdate.WithTelemetry(liveupdate.TelemetryConfig{SampleEvery: 1}))
	}
	if !w.wire {
		srv, err := liveupdate.New(opts...)
		if err != nil {
			return nil, err
		}
		cl, ok := srv.(*liveupdate.Cluster)
		if !ok {
			return nil, fmt.Errorf("expected a fleet, got %T", srv)
		}
		return &target{srv: cl, fleet: cl, tel: liveupdate.ServerTelemetry(cl)}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := liveupdate.New(append(opts, liveupdate.WithListener(ln))...)
	if err != nil {
		ln.Close()
		return nil, err
	}
	gw, ok := srv.(*liveupdate.Gateway)
	if !ok {
		ln.Close()
		return nil, fmt.Errorf("expected a gateway, got %T", srv)
	}
	remote, err := liveupdate.Dial(gw.Addr().String(), liveupdate.DialConfig{Conns: conns})
	if err != nil {
		_ = gw.Close()
		return nil, fmt.Errorf("dial gateway: %w", err)
	}
	return &target{srv: remote, gw: gw, remote: remote, tel: liveupdate.ServerTelemetry(gw)}, nil
}

// mlpMACs returns the multiply-adds of one DLRM forward's bottom and top
// MLPs, read from the model shapes of a single criteo node.
func mlpMACs() (int64, error) {
	srv, err := liveupdate.New(liveupdate.WithProfile(mustProfile()), liveupdate.WithTraining(false))
	if err != nil {
		return 0, err
	}
	sys, ok := srv.(*liveupdate.System)
	if !ok {
		return 0, fmt.Errorf("expected a single node, got %T", srv)
	}
	var macs int64
	for _, l := range append(sys.Model.Bottom.Layers, sys.Model.Top.Layers...) {
		macs += int64(l.W.Rows) * int64(l.W.Cols)
	}
	return macs, nil
}
