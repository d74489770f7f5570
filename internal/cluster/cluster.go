// Package cluster runs a fleet of LiveUpdate replicas behind one serving
// front door (paper §II-C and §IV-E): N core.Systems share a common base
// checkpoint, a Router spreads requests across them, and a periodic
// priority-merge synchronization (Algorithm 3 over the tree AllGather of
// internal/collective) reconciles the per-replica LoRA adapters so every
// replica converges to identical effective embeddings — the paper's
// replica-consistency requirement.
//
// Replica ownership is delegated to an internal/fleet membership
// controller: the fleet is elastic. Replicas can Join, Leave, Fail, and be
// Replaced at runtime while serving continues; a joining replica catches up
// through an emt checkpoint restore plus a full LoRA state transfer billed
// to the virtual sync clock, and routing follows the live member view
// through one atomic pointer (the hash policy is a consistent-hash ring, so
// a single membership change only remaps ~1/N of the keyspace).
//
// # Concurrency model
//
// A Cluster is safe for concurrent callers and is designed so independent
// replicas serve genuinely in parallel:
//
//   - Serve/ServeShard take a fleet-wide read lock (RWMutex.RLock) plus the
//     target replica's own mutex (inside core.System.Serve). Requests for
//     different replicas never contend; requests for the same replica
//     serialize, matching the single-server virtual-clock model.
//   - How a periodic sync propagates depends on Config.Mode. In SyncBarrier
//     mode it takes the fleet-wide write lock: a stop-the-world barrier that
//     drains in-flight requests, mutates every replica, and readmits
//     traffic. In SyncAsync mode (the default) there is no fleet-wide
//     serialization point at all: the pipeline snapshots each replica
//     individually (holding only that replica's lock for the O(rows)
//     export), runs the priority merge on a background goroutine with the
//     simulated AllGather cost charged to the sync clock, and publishes the
//     epoch-stamped merged state per replica, under that replica's write
//     lock only (core.System.PublishLoRA). ServeShard never blocks on a
//     periodic sync in async mode; manual SyncNow and ReplicasConsistent
//     remain explicit barriers in both modes.
//   - Membership reads are lock-free: the serve path loads the current
//     fleet.View through an atomic pointer (under the fleet read lock, so a
//     request never straddles a membership commit). Membership mutations
//     hold syncMu — the mutex every merge (barrier periodic sync, async
//     pipeline epoch, SyncNow, consistency probe) holds for its whole
//     snapshot→merge→publish span — so a joiner's catch-up can never
//     interleave with a publish, and they install the new view under a
//     brief (O(members)) fleet write barrier so departing members' request
//     counts fold exactly. The expensive parts — spawning and catching up a
//     replica — run before that barrier; serving is never stopped
//     fleet-wide for a membership change. Requests already routed to a slot
//     whose member has since failed redirect to the next active slot.
//   - Periodic syncs trigger on virtual-time epochs: epoch k starts when the
//     fleet clock crosses k·SyncEvery, and each epoch is synced exactly
//     once. Because a replica's virtual timeline depends only on its own
//     request subsequence (LoRA values never feed back into latency), every
//     virtual-time statistic — Served, Violations, sync counts, per-replica
//     clocks and latency quantiles — is identical no matter how many
//     goroutines drive the fleet, in either mode, as long as per-replica
//     request order is preserved and membership changes land at
//     deterministic points in the request sequence (see internal/driver,
//     which guarantees both). What async mode gives up is bit-identical
//     adapter VALUES across runs: which training steps land before a given
//     snapshot depends on wall-clock interleaving, the bounded-staleness
//     window the paper's live-update design explicitly embraces.
package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"liveupdate/internal/collective"
	"liveupdate/internal/core"
	"liveupdate/internal/fleet"
	"liveupdate/internal/metrics"
	"liveupdate/internal/obs"
	"liveupdate/internal/simnet"
	"liveupdate/internal/trace"
)

// SyncMode selects how periodic priority-merge syncs propagate through a
// serving fleet.
type SyncMode string

const (
	// SyncAsync (the default) runs the versioned, double-buffered pipeline:
	// snapshot → background merge → per-replica publish. Serving
	// never blocks on a fleet-wide lock during a periodic sync.
	SyncAsync SyncMode = "async"
	// SyncBarrier is the legacy stop-the-world protocol: every periodic
	// sync takes the fleet write lock, draining and blocking all serving
	// until the merged state is installed everywhere.
	SyncBarrier SyncMode = "barrier"
)

// SyncModes lists the supported modes, default first.
func SyncModes() []SyncMode { return []SyncMode{SyncAsync, SyncBarrier} }

// ParseSyncMode validates a mode name; the empty string means SyncAsync.
func ParseSyncMode(s string) (SyncMode, error) {
	switch SyncMode(s) {
	case "":
		return SyncAsync, nil
	case SyncAsync, SyncBarrier:
		return SyncMode(s), nil
	}
	return "", fmt.Errorf("cluster: unknown sync mode %q (valid: %v)", s, SyncModes())
}

// Config describes a replica fleet.
type Config struct {
	// Base configures each replica. All replicas are built from the same
	// options (same seed → same base checkpoint); local rank adaptation is
	// force-disabled because Algorithm 3 exchanges factor rows, which
	// requires a fleet-wide common rank (rank changes ride the full sync).
	// Replicas admitted later (Join/Replace/Scale) are built the same way
	// and then caught up from a live donor.
	Base core.Options

	// Replicas is the initial fleet size (≥ 1).
	Replicas int

	// Router picks the serving replica per request. Defaults to round-robin.
	Router Router

	// SyncEvery is the virtual-time interval between LoRA priority-merge
	// syncs: one sync fires for each SyncEvery epoch the fleet-max clock
	// crosses. Zero disables periodic syncs (SyncNow remains available).
	SyncEvery time.Duration

	// Mode selects the periodic-sync propagation protocol. The zero value
	// means SyncAsync.
	Mode SyncMode

	// BandwidthBps and LatencySec describe the sync fabric links (also used
	// to bill catch-up transfers). Zero values default to 100 GbE / 1 ms.
	BandwidthBps float64
	LatencySec   float64

	// Topology selects the collective pricing the sync fabric: "flat" (the
	// default recursive-doubling AllGather), "ring", or "tree". The merged
	// state is identical under every topology; only the sync bill changes.
	Topology collective.Kind

	// DeltaSync bills only rows and factors changed since each peer's last
	// acknowledged sync generation. Pure cost accounting — state flow is
	// unchanged, so results stay bit-identical to full sync.
	DeltaSync bool

	// Compression prices flate compression of sync payloads: 0 disables,
	// 1 (fastest) … 9 (best ratio). Trades CompressSeconds for WireBytes.
	Compression int

	// Chaos optionally attaches a default membership-event schedule to the
	// cluster. It is advisory: the load driver picks it up when its own
	// configuration carries no schedule (liveupdate.WithChaos wires this).
	Chaos fleet.Schedule
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Replicas < 1 {
		return fmt.Errorf("cluster: Replicas must be >= 1, got %d", c.Replicas)
	}
	if c.SyncEvery < 0 {
		return fmt.Errorf("cluster: SyncEvery must be non-negative")
	}
	if _, err := ParseSyncMode(string(c.Mode)); err != nil {
		return err
	}
	if c.BandwidthBps < 0 || c.LatencySec < 0 {
		return fmt.Errorf("cluster: link parameters must be non-negative")
	}
	if _, err := collective.ParseTopology(c.Topology); err != nil {
		return err
	}
	if c.Compression < 0 || c.Compression > 9 {
		return fmt.Errorf("cluster: Compression level %d out of range [0,9]", c.Compression)
	}
	if err := c.Chaos.Validate(); err != nil {
		return fmt.Errorf("cluster: chaos schedule: %w", err)
	}
	return c.Base.Validate()
}

// Cluster is a fleet of replica Systems behind a Router. It implements the
// same Serve/Stats surface as a single core.System, so callers can scale
// from one node to a fleet without changing the serving loop, and it is safe
// for concurrent callers (see the package comment for the locking model).
// Membership is elastic: see Join, Leave, FailReplica, ReplaceReplica, and
// Scale.
type Cluster struct {
	cfg    Config
	mode   SyncMode
	fleet  *fleet.Controller
	router Router
	sync   *collective.SyncGroup
	async  *collective.AsyncSyncGroup

	// syncClock accumulates virtual time spent inside priority-merge syncs
	// and catch-up transfers, separate from the replicas' serving clocks.
	syncClock *simnet.Clock

	// fleetMu is the serve/sync barrier: Serve holds it for read; barrier
	// syncs (every periodic sync in barrier mode, SyncNow and consistency
	// probes in both modes) hold it for write, as does the membership
	// controller's install barrier (fold + view swap — O(members), so the
	// serve stall is microseconds). The async pipeline's merge never takes
	// it.
	fleetMu sync.RWMutex
	// syncMu serializes every merge (barrier-mode periodic syncs, each
	// async pipeline epoch, SyncNow, consistency probes) with every
	// membership mutation. Holding it across a mutation makes the
	// catch-up's donor export and the joiner's install atomic with respect
	// to publishes: no merged epoch can land between them, so a joiner can
	// never miss a publish whose rows would not recur in later supports.
	// Serving NEVER takes syncMu — a membership change or in-flight merge
	// only ever stalls other merges, not requests. Lock order:
	// syncMu → controller mutex → fleetMu → per-replica node locks.
	syncMu sync.Mutex
	// syncedEpoch is the last SyncEvery epoch a periodic sync has covered.
	// Atomic: in barrier mode it is written under the fleet write lock, in
	// async mode by the pipeline goroutine; serve-path trigger checks read
	// it lock-free in both modes.
	syncedEpoch atomic.Int64
	// pipe drives asynchronous periodic syncs (nil in barrier mode or when
	// periodic syncs are disabled).
	pipe *syncPipeline

	// testSyncStall, when set by tests, is invoked by the async pipeline
	// after the snapshot while the merge is staged — a hook to hold a sync
	// "in flight" and prove serving does not block behind it.
	testSyncStall func()

	// gen counts state-changing operations (serves, syncs, membership
	// changes); the merged-stats cache is keyed on it so Stats() is O(1)
	// between changes. It is sharded by replica slot so concurrent workers
	// bump disjoint cache lines on the serve hot path instead of contending
	// on one atomic.
	gen     *metrics.ShardedCounter
	statsMu sync.Mutex
	stats   core.Stats
	statsOK bool
	statsAt uint64

	// Telemetry instruments (nil without Config.Base.Telemetry). Strictly
	// side-band: counters observe completed events, gauges read lock-free
	// state at scrape time, spans time wall-clock stages. Nothing here feeds
	// back into routing, syncing, or any virtual-time statistic — and scrape
	// paths never call Stats(), which would drain the async pipeline.
	tracer   *obs.Tracer
	obsSyncs *obs.Counter
}

// New builds the fleet: Replicas identical Systems from cfg.Base (shared
// base checkpoint), owned by a fleet membership controller and wired into
// one SyncGroup.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Router == nil {
		cfg.Router = &roundRobinRouter{}
	}
	if cfg.BandwidthBps == 0 {
		cfg.BandwidthBps = simnet.Gbps100
	}
	if cfg.LatencySec == 0 {
		cfg.LatencySec = 0.001
	}
	mode, err := ParseSyncMode(string(cfg.Mode))
	if err != nil {
		return nil, err
	}
	cfg.Mode = mode
	c := &Cluster{
		cfg:       cfg,
		mode:      mode,
		router:    cfg.Router,
		syncClock: simnet.NewClock(),
		gen:       metrics.NewShardedCounter(cfg.Replicas),
	}
	spawn := func() (*core.System, error) {
		opts := cfg.Base
		// All replicas must hold structurally compatible LoRA factors for
		// the merge; see Config.Base.
		opts.LoRA.DisableRankAdapt = true
		return core.New(opts)
	}
	seed := make([]*core.System, cfg.Replicas)
	for i := range seed {
		sys, err := spawn()
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
		seed[i] = sys
	}
	c.fleet, err = fleet.NewController(fleet.Config{
		Spawn:        spawn,
		BandwidthBps: cfg.BandwidthBps,
		LatencySec:   cfg.LatencySec,
		SyncClock:    c.syncClock,
		// Membership commits (stats fold + view swap) run with no serve in
		// flight, so a request can neither finish on a member whose stats
		// were already folded nor observe a half-installed view.
		InstallBarrier: func(commit func()) {
			c.fleetMu.Lock()
			commit()
			c.fleetMu.Unlock()
		},
	}, seed)
	if err != nil {
		return nil, err
	}
	// The SyncGroup carries link pricing and cumulative accounting; the
	// replica set it syncs over is the live member view, passed per sync.
	topo, err := collective.ParseTopology(cfg.Topology)
	if err != nil {
		return nil, err // unreachable: Validate already parsed it
	}
	c.sync, err = collective.NewSyncGroupWith(collective.GroupConfig{
		BandwidthBps:  cfg.BandwidthBps,
		LatencySec:    cfg.LatencySec,
		Topology:      topo,
		Delta:         cfg.DeltaSync,
		CompressLevel: cfg.Compression,
	})
	if err != nil {
		return nil, err // unreachable: Validate already checked the level
	}
	c.async = collective.NewAsyncSyncGroup(c.sync)
	if mode == SyncAsync && cfg.SyncEvery > 0 {
		c.pipe = newSyncPipeline(c)
	}
	if tel := cfg.Base.Telemetry; tel != nil {
		reg := tel.Registry()
		c.tracer = tel.Tracer()
		c.obsSyncs = reg.Counter("liveupdate_sync_epochs_total",
			"LoRA priority-merge synchronizations completed (periodic epochs and manual syncs).")
		// Function-backed instruments read lock-free (view pointer, clock
		// atomics) or briefly lock the membership controller — never a fleet
		// or replica serve lock, so a scrape cannot stall serving.
		reg.GaugeFunc("liveupdate_fleet_members",
			"Active replicas in the current membership view.",
			func() float64 { return float64(c.fleet.View().NumActive()) })
		reg.GaugeFunc("liveupdate_virtual_time_seconds",
			"Fleet virtual clock (most advanced replica, including retired high-water mark).",
			c.fleetClock)
		reg.CounterFunc("liveupdate_fleet_joins_total",
			"Replicas admitted after the seed fleet (join, replace, scale-up).",
			func() uint64 { return uint64(c.fleet.Stats().Joins) })
		reg.CounterFunc("liveupdate_fleet_leaves_total",
			"Graceful departures (leave, scale-down).",
			func() uint64 { return uint64(c.fleet.Stats().Leaves) })
		reg.CounterFunc("liveupdate_fleet_fails_total",
			"Abrupt exclusions (fail, the fail half of replace).",
			func() uint64 { return uint64(c.fleet.Stats().Fails) })
	}
	return c, nil
}

// Telemetry returns the telemetry the fleet was built with (nil when
// observability is off); replicas share it via Config.Base.Telemetry.
func (c *Cluster) Telemetry() *obs.Telemetry { return c.cfg.Base.Telemetry }

// Size returns the number of active replicas.
func (c *Cluster) Size() int { return c.fleet.View().NumActive() }

// Replica exposes the System serving slot i (read-mostly: experiments and
// tests). It returns nil when i is out of range or the slot is empty — its
// member failed or left — so callers must check before dereferencing;
// historically an out-of-range index panicked.
func (c *Cluster) Replica(i int) *core.System {
	if m := c.fleet.View().Member(i); m != nil {
		return m.Sys
	}
	return nil
}

// Members returns the current membership view.
func (c *Cluster) Members() *fleet.View { return c.fleet.View() }

// RouterName returns the active routing policy's name.
func (c *Cluster) RouterName() string { return c.router.Name() }

// Mode returns the periodic-sync propagation mode.
func (c *Cluster) Mode() SyncMode { return c.mode }

// DefaultBatchSize returns the serving-batch hint attached at construction
// (Config.Base.BatchSize; 0 = unbatched). The load driver uses it when its
// own configuration does not set a batch size.
func (c *Cluster) DefaultBatchSize() int { return c.cfg.Base.BatchSize }

// ChaosSchedule returns the membership-event schedule attached at
// construction (nil when none was).
func (c *Cluster) ChaosSchedule() fleet.Schedule { return c.cfg.Chaos }

// NumShards returns the shard-lane capacity: the highest slot index plus
// one. Slots are stable for a member's lifetime and capacity only grows, so
// a load driver's lane ownership survives membership churn; an empty slot
// (failed/left member) simply receives no routed traffic.
func (c *Cluster) NumShards() int { return c.fleet.View().NumSlots() }

// ShardOf routes one request to a replica slot without serving it. Routing
// and serving are deliberately split so a concurrent driver can route the
// trace in a single deterministic sequence and then serve shards in
// parallel. Each request must be routed exactly once: stateful routers
// (round-robin) advance their cursor here. Only active slots are returned.
func (c *Cluster) ShardOf(s trace.Sample) int {
	t0 := c.tracer.StageStart(obs.StageRoute)
	defer c.tracer.StageEnd(obs.StageRoute, t0)
	if m := c.router.RouteView(s, c.fleet.View()); m != nil {
		return m.Slot
	}
	return -1 // surfaces as a routing error in ServeShard
}

// Serve routes one request to a replica and serves it there (including that
// replica's co-located training tick). Safe for concurrent callers; note
// that concurrent callers race for per-replica arrival order, so run-to-run
// determinism under concurrency additionally needs ordered per-shard
// delivery (internal/driver provides it).
func (c *Cluster) Serve(s trace.Sample) (core.Response, error) {
	return c.ServeShard(c.ShardOf(s), s)
}

// ServeShard serves one request on a specific replica slot, then fires any
// periodic LoRA syncs whose virtual-time epoch the fleet clock has crossed —
// synchronously behind the fleet write lock in barrier mode, or handed to
// the background pipeline (without ever taking a fleet-wide write lock) in
// async mode. A request aimed at a slot whose member has since failed or
// left redirects to the next active slot — the lane drains instead of
// erroring.
func (c *Cluster) ServeShard(shard int, s trace.Sample) (core.Response, error) {
	if c.pipe != nil {
		if err := c.pipe.Err(); err != nil {
			return core.Response{}, err
		}
	}
	// The view is resolved under the read lock: membership commits hold
	// the write lock, so a member can never be folded out of the fleet
	// totals while this request is mid-serve on it.
	c.fleetMu.RLock()
	v := c.fleet.View()
	if shard < 0 || shard >= v.NumSlots() {
		c.fleetMu.RUnlock()
		return core.Response{}, fmt.Errorf("cluster: router %s picked replica %d of %d",
			c.router.Name(), shard, v.NumSlots())
	}
	m := v.Member(shard)
	if m == nil {
		if m = v.Redirect(shard); m == nil {
			c.fleetMu.RUnlock()
			return core.Response{}, fmt.Errorf("cluster: no active replicas")
		}
	}
	resp, err := m.Sys.Serve(s)
	if err != nil {
		c.fleetMu.RUnlock()
		return resp, err
	}
	resp.Replica = m.Slot
	needBarrierSync := false
	if d := c.cfg.SyncEvery.Seconds(); d > 0 {
		if e := c.epochOf(d); e > c.syncedEpoch.Load() {
			if c.mode == SyncBarrier {
				needBarrierSync = true
			} else {
				// Kick while still holding the read lock (kick is
				// non-blocking and touches neither fleetMu nor the
				// replicas), so anyone holding the WRITE lock knows no new
				// pipeline work can appear under them — the invariant
				// SyncNow and ReplicasConsistent rely on when they drain.
				c.pipe.kick(e)
			}
		}
	}
	c.gen.Add(m.Slot%c.gen.Shards(), 1)
	c.fleetMu.RUnlock()
	if needBarrierSync {
		if err := c.syncPendingEpochs(); err != nil {
			return resp, err
		}
	}
	return resp, nil
}

// ServeShardBatch serves a run of pre-routed same-shard samples on one
// replica slot through core.System.ServeBatch — the amortized fast path the
// load driver's lane workers coalesce into. Semantics match a loop over
// ServeShard for every virtual-time statistic: each sample still gets its own
// bookkeeping tail and training trigger on the replica; only buffer
// acquisition, the fleet read lock, and the periodic-sync epoch check (which
// runs once, after the batch) are amortized. A sync epoch crossed mid-batch
// is therefore picked up at the batch boundary — the same epochs fire either
// way, so final sync counts are unchanged. resps must have the same length as
// samples and is filled in order.
func (c *Cluster) ServeShardBatch(shard int, samples []trace.Sample, resps []core.Response) error {
	if len(resps) != len(samples) {
		return fmt.Errorf("cluster: ServeShardBatch got %d response slots for %d samples", len(resps), len(samples))
	}
	if len(samples) == 0 {
		return nil
	}
	if c.pipe != nil {
		if err := c.pipe.Err(); err != nil {
			return err
		}
	}
	c.fleetMu.RLock()
	v := c.fleet.View()
	if shard < 0 || shard >= v.NumSlots() {
		c.fleetMu.RUnlock()
		return fmt.Errorf("cluster: router %s picked replica %d of %d",
			c.router.Name(), shard, v.NumSlots())
	}
	m := v.Member(shard)
	if m == nil {
		if m = v.Redirect(shard); m == nil {
			c.fleetMu.RUnlock()
			return fmt.Errorf("cluster: no active replicas")
		}
	}
	if err := m.Sys.ServeBatch(samples, resps); err != nil {
		c.fleetMu.RUnlock()
		return err
	}
	for i := range resps {
		resps[i].Replica = m.Slot
	}
	needBarrierSync := false
	if d := c.cfg.SyncEvery.Seconds(); d > 0 {
		if e := c.epochOf(d); e > c.syncedEpoch.Load() {
			if c.mode == SyncBarrier {
				needBarrierSync = true
			} else {
				c.pipe.kick(e)
			}
		}
	}
	c.gen.Add(m.Slot%c.gen.Shards(), 1)
	c.fleetMu.RUnlock()
	if needBarrierSync {
		return c.syncPendingEpochs()
	}
	return nil
}

// ServeBatch routes each sample through the cluster's own router and serves
// maximal consecutive same-replica runs via ServeShardBatch — the amortized
// path for callers that hold a pre-formed mixed batch (the wire front end's
// binary endpoint) rather than pre-routed lanes. Routing happens in sample
// order through ShardOf, so stateless (hash) and cursor-stateful
// (round-robin) routers assign exactly the replicas a loop over Serve would,
// and aggregate virtual-time statistics match sequential serving either way.
// Two deliberate batch-semantics deviations: a load-aware router
// (least-loaded) sees the backlog as of batch arrival rather than after
// every serve — the requests DID arrive together — and a sync epoch crossed
// mid-run is picked up at the run boundary (same epochs fire, so sync counts
// are unchanged; scores immediately after an epoch may differ in the last
// decimals). resps must have the same length as samples and is filled in
// order.
func (c *Cluster) ServeBatch(samples []trace.Sample, resps []core.Response) error {
	if len(resps) != len(samples) {
		return fmt.Errorf("cluster: ServeBatch got %d response slots for %d samples", len(resps), len(samples))
	}
	// Route every sample exactly once, up front: stateful routers
	// (round-robin) advance their cursor per ShardOf call, so probing a
	// sample's shard twice would skew routing relative to sequential Serve.
	shards := make([]int, len(samples))
	for i := range samples {
		shards[i] = c.ShardOf(samples[i])
	}
	for start := 0; start < len(samples); {
		end := start + 1
		for end < len(samples) && shards[end] == shards[start] {
			end++
		}
		if err := c.ServeShardBatch(shards[start], samples[start:end], resps[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Profile returns the dataset profile the fleet serves (every replica shares
// it). The wire front end advertises it to remote load generators so they
// synthesize samples with the matching feature shape.
func (c *Cluster) Profile() trace.Profile { return c.cfg.Base.Profile }

// epochOf returns the SyncEvery epoch the fleet clock is currently in.
func (c *Cluster) epochOf(d float64) int64 {
	return int64(math.Floor(c.fleetClock() / d))
}

// syncPendingEpochs takes the sync mutex and the fleet write lock and syncs
// once per epoch the fleet clock has crossed since the last periodic sync —
// the barrier-mode protocol. The recheck under the locks makes racing
// callers idempotent: whoever gets them first syncs, the rest observe
// syncedEpoch caught up and do nothing; a membership change holding syncMu
// simply defers the sync until its new view is installed.
func (c *Cluster) syncPendingEpochs() error {
	d := c.cfg.SyncEvery.Seconds()
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	for target := c.epochOf(d); c.syncedEpoch.Load() < target; c.syncedEpoch.Add(1) {
		if _, err := c.syncLocked(); err != nil {
			return fmt.Errorf("cluster: periodic sync: %w", err)
		}
	}
	return nil
}

// fleetClock returns the most advanced replica clock — the fleet's wall
// time under concurrent serving — including the high-water mark of members
// that have since departed, so virtual time never runs backward across a
// failure. Clock and view reads are atomic, so this is safe from any
// goroutine.
func (c *Cluster) fleetClock() float64 {
	max := c.fleet.RetiredClock()
	for _, sys := range c.fleet.View().ActiveSystems() {
		if t := sys.Clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// VirtualNow returns the fleet's current virtual time (the fleet clock).
// Lock-free; the load driver reads it at drained checkpoints to evaluate
// chaos-schedule timestamps deterministically.
func (c *Cluster) VirtualNow() float64 { return c.fleetClock() }

// --- Elastic membership -------------------------------------------------

// membershipOp runs a membership mutation holding syncMu, so it is
// mutually exclusive with every merge: barrier-mode periodic syncs, each
// async pipeline epoch, SyncNow, and consistency probes all hold syncMu
// for their whole snapshot→merge→publish span. A joiner's catch-up export
// and install therefore cannot interleave with a publish — it can never
// miss a merged epoch whose rows would not recur in later supports.
// Serving never takes syncMu, so requests flow throughout; an epoch kicked
// while the mutation runs simply merges afterwards, over the new view.
func (c *Cluster) membershipOp(f func() error) error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	if err := f(); err != nil {
		return err
	}
	c.gen.Add(0, 1) // membership changed: invalidate the stats cache
	return nil
}

// Join admits a fresh replica into the fleet (first empty slot, or a new
// one), catching it up from the freshest active donor via checkpoint + full
// LoRA transfer. It returns the new member's slot. Serving continues
// throughout; only the donor is briefly locked for the export.
func (c *Cluster) Join() (int, error) {
	slot := -1
	err := c.membershipOp(func() error {
		m, _, err := c.fleet.Join()
		if err != nil {
			return err
		}
		slot = m.Slot
		return nil
	})
	return slot, err
}

// Leave retires the replica in slot gracefully: its statistics fold into
// the fleet totals and its slot empties (in-flight requests redirect).
func (c *Cluster) Leave(slot int) error {
	return c.membershipOp(func() error { return c.fleet.Leave(slot) })
}

// FailReplica kills the replica in slot — the crash path. The member is
// excluded from routing immediately (the next view load), its lane
// redirects, and its statistics fold into the fleet totals. The last active
// replica cannot be failed.
func (c *Cluster) FailReplica(slot int) error {
	return c.membershipOp(func() error { return c.fleet.Fail(slot) })
}

// ReplaceReplica fails the replica in slot (if still present) and admits a
// freshly caught-up replacement into the same slot in one membership
// change. It returns the slot served by the replacement.
func (c *Cluster) ReplaceReplica(slot int) (int, error) {
	out := -1
	err := c.membershipOp(func() error {
		m, _, err := c.fleet.Replace(slot)
		if err != nil {
			return err
		}
		out = m.Slot
		return nil
	})
	return out, err
}

// Scale grows or shrinks the active fleet to n replicas: joins fill empty
// slots first, shrinks retire the highest slots gracefully.
func (c *Cluster) Scale(n int) error {
	return c.membershipOp(func() error {
		_, err := c.fleet.Scale(n)
		return err
	})
}

// ApplyChaos applies one scripted membership event. The load driver calls
// this at drained checkpoints; it is also a convenient programmatic entry
// point for the same event grammar the -chaos flags accept.
func (c *Cluster) ApplyChaos(ev fleet.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	switch ev.Action {
	case fleet.Kill:
		return c.FailReplica(ev.Arg)
	case fleet.Replace:
		_, err := c.ReplaceReplica(ev.Arg)
		return err
	case fleet.Join:
		_, err := c.Join()
		return err
	case fleet.Leave:
		return c.Leave(ev.Arg)
	case fleet.Scale:
		return c.Scale(ev.Arg)
	}
	return fmt.Errorf("cluster: unknown chaos action %q", ev.Action)
}

// FleetStats returns the membership controller's accounting snapshot
// (member count, join/leave/fail counters, catch-up bill).
func (c *Cluster) FleetStats() fleet.Stats { return c.fleet.Stats() }

// --- Synchronization ----------------------------------------------------

// syncPipeline drives asynchronous periodic syncs: serve-path triggers kick
// it with the epoch target they observed, and a single background worker
// processes one epoch at a time — snapshot, staged merge, per-replica
// publish — until it has caught up. The worker exits when idle, so an idle
// Cluster holds no goroutines.
type syncPipeline struct {
	c *Cluster

	mu      sync.Mutex
	cond    *sync.Cond
	target  int64 // highest epoch any trigger has requested
	running bool  // a worker goroutine is active
	err     error // first pipeline failure, surfaced on later calls

	failed atomic.Bool // lock-free fast path for the error check
}

func newSyncPipeline(c *Cluster) *syncPipeline {
	p := &syncPipeline{c: c, target: -1}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Err returns the first pipeline failure, if any (lock-free when healthy).
func (p *syncPipeline) Err() error {
	if p == nil || !p.failed.Load() {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// kick requests syncs up to epoch target and returns immediately, starting
// the background worker if none is active.
func (p *syncPipeline) kick(target int64) {
	p.mu.Lock()
	if target > p.target {
		p.target = target
	}
	if p.running || p.err != nil {
		p.mu.Unlock()
		return
	}
	p.running = true
	p.mu.Unlock()
	go p.run()
}

// run processes pending epochs until caught up, then exits.
func (p *syncPipeline) run() {
	for {
		p.mu.Lock()
		if p.err != nil || p.c.syncedEpoch.Load() >= p.target {
			p.running = false
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		if err := p.c.syncEpochAsync(); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = fmt.Errorf("cluster: async periodic sync: %w", err)
				p.failed.Store(true)
			}
			p.mu.Unlock()
		}
	}
}

// drain blocks until the pipeline has no in-flight work (every epoch kicked
// so far is published) and returns its sticky error, if any. It never blocks
// serving — only the caller waits.
func (p *syncPipeline) drain() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.running {
		p.cond.Wait()
	}
	return p.err
}

// syncEpochAsync runs one epoch of the asynchronous protocol:
//
//  1. snapshot — each live member is locked individually, just long enough
//     to export (and clear) its modified-row support;
//  2. merge — PriorityMergeRanked (member IDs are the priority ranks) plus
//     the simulated AllGather pricing run on a background goroutine
//     (collective.AsyncSyncGroup), with the cost charged to the sync clock,
//     not to any serving clock;
//  3. publish — the epoch-stamped merged state is installed per member,
//     each under its own write lock (PublishLoRA).
//
// No step takes the fleet-wide write lock, so serving proceeds throughout.
// The whole epoch holds syncMu: membership mutations are excluded for its
// span, so the member set read here stays the member set published to, and
// a joiner never misses a publish.
func (c *Cluster) syncEpochAsync() error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	members := c.fleet.View().Active()
	states := make([]collective.RankedState, len(members))
	for i, m := range members {
		states[i] = collective.RankedState{Rank: m.ID, Tables: m.Sys.SnapshotLoRA()}
	}
	pending := c.async.BeginRanked(states)
	if hook := c.testSyncStall; hook != nil {
		hook()
	}
	merged, _, epoch, err := c.async.Finish(pending, c.syncClock)
	if err != nil {
		return err
	}
	// The publish stall is the install span: each member briefly holds its
	// write lock while the merged state is installed.
	t0 := c.tracer.StageStart(obs.StageSyncPublish)
	for _, m := range members {
		m.Sys.PublishLoRA(merged, epoch)
	}
	c.tracer.StageEnd(obs.StageSyncPublish, t0)
	c.obsSyncs.Inc()
	c.syncedEpoch.Add(1)
	c.gen.Add(0, 1)
	return nil
}

// quiesceSyncs waits for the async pipeline (if any) to finish all epochs
// kicked so far, so final statistics observe a settled sync count. Callers
// must hold NO cluster locks: the pipeline worker acquires syncMu per
// epoch, and a membership mutation holding syncMu may need the fleet write
// lock to commit. No-op in barrier mode.
func (c *Cluster) quiesceSyncs() error { return c.pipe.drain() }

// Err returns the async pipeline's sticky failure, if any (nil in barrier
// mode and on a healthy pipeline). A failed periodic sync also surfaces on
// every subsequent Serve/ServeShard and SyncNow; this accessor exists for
// callers that only poll Stats — which reports completed epochs and cannot
// carry an error — after a drive has ended.
func (c *Cluster) Err() error { return c.pipe.Err() }

// SyncNow runs one LoRA priority-merge synchronization across the live
// members (Algorithm 3 + tree AllGather) and returns its merge statistics.
// It is an explicit barrier in both modes: it holds syncMu — waiting out
// any in-flight asynchronous epoch or membership change — and the
// fleet-wide write lock, so its merge interleaves with nothing. After it
// returns every live member holds identical adapter state (an async epoch
// kicked but not yet started runs afterwards and publishes uniformly, so
// the invariant is preserved). Manual syncs do not consume periodic epochs.
func (c *Cluster) SyncNow() (collective.MergeStats, error) {
	if err := c.pipe.Err(); err != nil {
		return collective.MergeStats{}, err
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	return c.syncLocked()
}

// lockMembers freezes every given member with core.System.Lock (slot order,
// no cycles: nothing holds one replica's locks while waiting on another's),
// so fleet-wide mutations follow the adapter lock rule even for callers
// driving a replica directly via Replica(i). Callers must hold fleetMu for
// write.
func lockMembers(members []*fleet.Member) {
	for _, m := range members {
		m.Sys.Lock()
	}
}

func unlockMembers(members []*fleet.Member) {
	for i := len(members) - 1; i >= 0; i-- {
		members[i].Sys.Unlock()
	}
}

// syncLocked runs one sync over the live member view; callers must hold the
// fleet write lock.
func (c *Cluster) syncLocked() (collective.MergeStats, error) {
	// In barrier mode the whole merge+publish IS the serving stall (the
	// fleet write lock is held), so the span covers all of it.
	t0 := c.tracer.StageStart(obs.StageSyncPublish)
	defer c.tracer.StageEnd(obs.StageSyncPublish, t0)
	members := c.fleet.View().Active()
	lockMembers(members)
	states := make([]collective.RankedState, len(members))
	for i, m := range members {
		states[i] = collective.RankedState{Rank: m.ID, Tables: m.Sys.LoRA.Snapshot()}
	}
	merged, stats, epoch, err := c.sync.SyncRanked(c.syncClock, states)
	if err == nil {
		for _, m := range members {
			m.Sys.LoRA.Publish(merged, epoch)
		}
	}
	unlockMembers(members)
	if err != nil {
		return stats, fmt.Errorf("cluster: sync failed: %w", err)
	}
	c.obsSyncs.Inc()
	c.gen.Add(0, 1)
	return stats, nil
}

// ReplicasConsistent verifies the §II-C invariant: for the first idsPerTable
// ids of every table, all live members produce identical effective embedding
// rows (base + LoRA delta). It is meaningful right after a sync. It holds
// syncMu (no merge or membership change can be mid-flight) and the fleet
// write lock (no serve can train mid-probe), reading a frozen snapshot.
func (c *Cluster) ReplicasConsistent(idsPerTable int) bool {
	if c.pipe.Err() != nil {
		return false
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	members := c.fleet.View().Active()
	if len(members) < 2 {
		return true
	}
	lockMembers(members)
	defer unlockMembers(members)
	p := c.cfg.Base.Profile
	ref := make([]float64, p.EmbeddingDim)
	probe := make([]float64, p.EmbeddingDim)
	for table := 0; table < p.NumTables; table++ {
		n := int32(idsPerTable)
		if int(n) > p.TableSize {
			n = int32(p.TableSize)
		}
		for id := int32(0); id < n; id++ {
			members[0].Sys.LoRA.EffectiveRow(table, id, ref)
			for r := 1; r < len(members); r++ {
				members[r].Sys.LoRA.EffectiveRow(table, id, probe)
				for d := range ref {
					if probe[d] != ref[d] {
						return false
					}
				}
			}
		}
	}
	return true
}

// Stats returns the merged fleet snapshot: exact sums for counters
// (including the folded contribution of members that have since departed),
// a true fleet-wide P99/P50 computed over the union of the live members'
// latency windows (not an average of per-replica quantiles), and the
// per-replica breakdown in Replicas (live members, in slot order).
//
// In async mode Stats first drains the pipeline, so the snapshot reflects
// every sync epoch the fleet had crossed when the call was made — which is
// what makes the final sync counts of a run deterministic for any worker
// count. Draining waits only for the background merge, never for serving.
// A failed async sync cannot be reported here (Stats carries no error);
// it surfaces on every subsequent Serve and via Err().
//
// When no latency samples have been retained anywhere in the fleet (nothing
// served yet), P50 and P99 are NaN — the documented "no data" sentinel;
// check with math.IsNaN rather than comparing against zero, which is a
// legitimate latency floor. Departed members' latency windows are not
// retained, so after churn the quantiles cover live members only (counters
// still cover everyone).
//
// Merging is O(replicas × latency window); the result is cached and
// recomputed only after state has changed (a serve, a sync, or a membership
// change), so polling Stats in a reporting loop is cheap.
func (c *Cluster) Stats() core.Stats {
	// Quiesce before reading the generation counter so a draining sync's
	// publish lands inside this snapshot, not after it.
	_ = c.quiesceSyncs()
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	gen := c.gen.Load()
	if c.statsOK && gen == c.statsAt {
		return cloneStats(c.stats)
	}
	st := c.mergedStats()
	c.stats = st
	c.statsAt = gen
	c.statsOK = true
	return cloneStats(st)
}

// cloneStats returns a copy whose Replicas slice does not alias the cache.
func cloneStats(st core.Stats) core.Stats {
	st.Replicas = append([]core.Stats(nil), st.Replicas...)
	return st
}

// mergedStats recomputes the fleet snapshot from the live members plus the
// retired aggregate of departed ones.
func (c *Cluster) mergedStats() core.Stats {
	for {
		// Controller accounting must be read BEFORE taking fleetMu: the
		// membership install barrier acquires fleetMu while holding the
		// controller's mutex, so nesting them the other way could deadlock.
		// But a commit landing between these reads and the member iteration
		// would leave the departing member counted in neither the retired
		// aggregate nor the live view — so capture the view version first,
		// and retry the rare snapshot that straddled a commit (none can
		// land while the read lock is held).
		v0 := c.fleet.View().Version
		fs := c.fleet.Stats()
		ret := c.fleet.Retired()
		c.fleetMu.RLock()
		if c.fleet.View().Version != v0 {
			c.fleetMu.RUnlock()
			continue
		}
		merged := c.mergedStatsLocked(fs, ret)
		c.fleetMu.RUnlock()
		return merged
	}
}

// mergedStatsLocked merges the live members with the given controller
// accounting; callers must hold fleetMu (read suffices — commits need the
// write lock, so the membership cannot change mid-merge).
func (c *Cluster) mergedStatsLocked(fs fleet.Stats, ret fleet.Retired) core.Stats {
	merged := core.Stats{
		VirtualTime: c.fleetClock(),
	}
	gs := c.sync.GroupStats()
	merged.Syncs = gs.Syncs
	merged.SyncBytes = gs.PayloadBytes
	merged.SyncSeconds = gs.Seconds()
	merged.SyncComputeSeconds = gs.ComputeSeconds
	merged.SyncPublishSeconds = gs.PublishSeconds
	merged.SyncWireBytes = gs.WireBytes
	merged.SyncDeltaSavedBytes = gs.DeltaSavedBytes
	merged.SyncCompressSavedBytes = gs.CompressSavedBytes
	merged.SyncCompressSeconds = gs.CompressSeconds
	merged.SyncTopology = string(c.sync.Topology().Kind())
	merged.SLA = c.cfg.Base.Node.SLA

	merged.Members = fs.Members
	merged.Joins = fs.Joins
	merged.Leaves = fs.Leaves
	merged.Fails = fs.Fails
	merged.CatchUpBytes = fs.CatchUpBytes
	merged.CatchUpSeconds = fs.CatchUpSeconds

	merged.Served = ret.Served
	merged.Violations = ret.Violations
	merged.TrainSteps = ret.TrainSteps
	merged.FullSyncs = ret.FullSyncs
	latencySum := ret.LatencySum
	hitInf, hitTrain := ret.HitInfSum, ret.HitTrainSum

	members := c.fleet.View().Active()
	var lat []float64
	for _, m := range members {
		rs := m.Sys.Stats()
		merged.Served += rs.Served
		merged.Violations += rs.Violations
		merged.TrainSteps += rs.TrainSteps
		merged.FullSyncs += rs.FullSyncs
		merged.LoRAHotRows += rs.LoRAHotRows
		latencySum += rs.MeanLatency * float64(rs.Served)
		// Weight cache hit ratios by requests served, like MeanLatency: an
		// unweighted mean would let a nearly idle replica's ratio swamp the
		// workload-level truth under skewed routing.
		hitInf += rs.InferenceHitRatio * float64(rs.Served)
		hitTrain += rs.TrainingHitRatio * float64(rs.Served)
		lat = append(lat, m.Sys.LatencyWindow()...)
		merged.Replicas = append(merged.Replicas, rs)
	}
	if len(lat) == 0 {
		// Documented sentinel: no retained samples means the quantiles are
		// undefined, not zero.
		merged.P50 = math.NaN()
		merged.P99 = math.NaN()
	} else {
		merged.P50 = metrics.Quantile(lat, 0.50)
		merged.P99 = metrics.Quantile(lat, 0.99)
	}
	if merged.Served > 0 {
		merged.ViolationRate = float64(merged.Violations) / float64(merged.Served)
		merged.MeanLatency = latencySum / float64(merged.Served)
		merged.InferenceHitRatio = hitInf / float64(merged.Served)
		merged.TrainingHitRatio = hitTrain / float64(merged.Served)
	}
	// Adapter footprint and rank are identical across replicas by
	// construction; report one live member's view, not the sum.
	merged.MemoryOverhead = members[0].Sys.MemoryOverhead()
	merged.LoRARank = members[0].Sys.LoRARank()
	return merged
}
