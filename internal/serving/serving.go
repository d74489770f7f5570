// Package serving implements the inference-side of a LiveUpdate node (paper
// Fig 7, red path): request serving with per-row memory-system accounting,
// the shared inference-data ring buffer that feeds the co-located trainer
// (10-minute retention, §IV-E), and P99 latency / SLA tracking.
package serving

import (
	"fmt"
	"sync"
	"sync/atomic"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/metrics"
	"liveupdate/internal/numasim"
	"liveupdate/internal/obs"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// RingBuffer caches recent inference samples (features + labels) as the
// training dataset for the online update path. Old samples are overwritten
// once capacity is reached, matching the paper's 10-minute retention window.
type RingBuffer struct {
	buf   []trace.Sample
	next  int
	count int
	total uint64
}

// NewRingBuffer creates a buffer holding up to capacity samples.
func NewRingBuffer(capacity int) *RingBuffer {
	if capacity <= 0 {
		panic("serving: ring buffer capacity must be positive")
	}
	return &RingBuffer{buf: make([]trace.Sample, capacity)}
}

// Push appends a sample, overwriting the oldest when full.
func (r *RingBuffer) Push(s trace.Sample) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
}

// Len returns the number of retained samples.
func (r *RingBuffer) Len() int { return r.count }

// Total returns the number of samples ever pushed.
func (r *RingBuffer) Total() uint64 { return r.total }

// Sample draws n samples uniformly (with replacement) from the retained
// window — the trainer's mini-batch source. It returns nil when empty.
func (r *RingBuffer) Sample(rng *tensor.RNG, n int) []trace.Sample {
	if r.count == 0 || n <= 0 {
		return nil
	}
	return r.SampleInto(rng, make([]trace.Sample, n))
}

// SampleInto is Sample through a caller-owned buffer, filling dst entirely
// and returning it — the allocation-free form the train tick reuses. It
// returns nil (drawing nothing from rng) when the buffer is empty, so its RNG
// consumption matches Sample's exactly.
func (r *RingBuffer) SampleInto(rng *tensor.RNG, dst []trace.Sample) []trace.Sample {
	if r.count == 0 || len(dst) == 0 {
		return nil
	}
	for i := range dst {
		dst[i] = r.buf[rng.Intn(r.count)]
	}
	return dst
}

// Recent returns up to n of the most recently pushed samples, newest last.
func (r *RingBuffer) Recent(n int) []trace.Sample {
	if n > r.count {
		n = r.count
	}
	out := make([]trace.Sample, 0, n)
	for i := n; i > 0; i-- {
		idx := (r.next - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// NodeConfig sets serving-path constants.
type NodeConfig struct {
	// GPUDenseTime is the dense-layer forward time per request on the
	// simulated GPU (paper: single-digit ms class).
	GPUDenseTime float64
	// SLA is the P99 target (paper: 10-20 ms). Latencies above it count as
	// violations.
	SLA float64
	// RingCapacity is the inference-data cache size in samples.
	RingCapacity int
	// LatencyWindow is the number of samples the P99 tracker retains.
	LatencyWindow int
}

// DefaultNodeConfig mirrors the paper's serving constants: ~4 ms dense time,
// 10 ms SLA target.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		GPUDenseTime:  0.004,
		SLA:           0.010,
		RingCapacity:  8192,
		LatencyWindow: 4096,
	}
}

// Validate reports configuration errors.
func (c NodeConfig) Validate() error {
	switch {
	case c.GPUDenseTime <= 0:
		return fmt.Errorf("serving: GPUDenseTime must be positive")
	case c.SLA <= 0:
		return fmt.Errorf("serving: SLA must be positive")
	case c.RingCapacity <= 0:
		return fmt.Errorf("serving: RingCapacity must be positive")
	case c.LatencyWindow <= 0:
		return fmt.Errorf("serving: LatencyWindow must be positive")
	}
	return nil
}

// Node is one inference server: it scores requests through the DLRM using
// an EmbeddingSource, charges every embedding-row access to the machine
// model, caches request data for the trainer, and tracks tail latency.
//
// The serving path is split in two (see core.System for the locking):
// Predict and PredictBatch only read parameters (the owner holds them still
// with a read lock; embedding access counters are atomic), while Commit
// mutates node state (ring, tracker, machine model, clock) and must be
// serialized by the owner.
type Node struct {
	Cfg     NodeConfig
	Model   *dlrm.Model
	Emb     dlrm.EmbeddingSource
	Machine *numasim.Machine
	Clock   *simnet.Clock
	Ring    *RingBuffer
	Lat     *metrics.LatencyTracker

	// Trace, when non-nil, records sampled wall-clock forward-stage spans.
	// A nil tracer no-ops, so the unobserved fast path pays one branch.
	Trace *obs.Tracer

	// served and violations are atomic so fleet-level code (merged stats,
	// progress reporting) can read them without taking the owning replica's
	// serve lock. All other Node state is guarded by the owner (core.System).
	served     atomic.Uint64
	violations atomic.Uint64
}

// NewNode assembles a serving node.
func NewNode(cfg NodeConfig, model *dlrm.Model, emb dlrm.EmbeddingSource,
	machine *numasim.Machine, clock *simnet.Clock) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Node{
		Cfg:     cfg,
		Model:   model,
		Emb:     emb,
		Machine: machine,
		Clock:   clock,
		Ring:    NewRingBuffer(cfg.RingCapacity),
		Lat:     metrics.NewLatencyTracker(cfg.LatencyWindow),
	}, nil
}

// MustNewNode panics on configuration errors.
func MustNewNode(cfg NodeConfig, model *dlrm.Model, emb dlrm.EmbeddingSource,
	machine *numasim.Machine, clock *simnet.Clock) *Node {
	n, err := NewNode(cfg, model, emb, machine, clock)
	if err != nil {
		panic(err)
	}
	return n
}

// Predict scores one request through the DLRM and the node's embedding
// source. It is the read-only half of the serving fast path: it touches no
// node bookkeeping (ring, clocks, counters, machine model), runs through a
// pooled forward scratch with zero heap allocations, and is safe concurrently
// with Commit and Stats reads on the same node.
func (n *Node) Predict(s trace.Sample) float64 {
	t0 := n.Trace.StageStart(obs.StageForward)
	p := n.Model.Predict(n.Emb, s.Dense, s.Sparse)
	n.Trace.StageEnd(obs.StageForward, t0)
	return p
}

// Commit performs one request's bookkeeping tail: embedding-row fetches are
// charged to the memory model (inference workload, cached path), the request
// is cached for the online trainer, tail latency and SLA violations are
// tracked, and the clock advances by the request latency (sequential-server
// model). It returns the request latency in seconds. Commit mutates node
// state and must be serialized by the owner (core.System's mutex); per-node
// Commit order is what the virtual-time determinism contract is defined over.
func (n *Node) Commit(s trace.Sample) (latency float64) {
	memTime := 0.0
	for t, ids := range s.Sparse {
		for _, id := range ids {
			memTime += n.Machine.Access(numasim.Inference, numasim.KindCached, int32(t), id)
		}
	}
	latency = memTime + n.Cfg.GPUDenseTime
	n.Ring.Push(s)
	n.Lat.Observe(latency)
	n.served.Add(1)
	if latency > n.Cfg.SLA {
		n.violations.Add(1)
	}
	n.Clock.Advance(latency)
	return latency
}

// batchViews holds the slice-header views PredictBatch packs from a sample
// slice (no feature data is copied — the headers alias the samples). Pooled
// so building a batch view allocates nothing in steady state; views are
// package-global because batches from different nodes are interchangeable.
type batchViews struct {
	dense  [][]float64
	sparse [][][]int32
}

var viewPool = sync.Pool{New: func() any { return &batchViews{} }}

// PredictBatch scores samples in order, writing click probabilities into
// probs (len(probs) == len(samples)). It is the batched form of Predict —
// lock-free, zero-alloc in steady state — and routes through the model's
// GEMM path: one matrix multiply per MLP layer for the whole batch, with
// results bit-identical to per-sample Predict calls.
func (n *Node) PredictBatch(samples []trace.Sample, probs []float64) {
	if len(probs) != len(samples) {
		panic(fmt.Sprintf("serving: PredictBatch probs len %d != samples len %d", len(probs), len(samples)))
	}
	if len(samples) == 0 {
		return
	}
	v := viewPool.Get().(*batchViews)
	v.dense = v.dense[:0]
	v.sparse = v.sparse[:0]
	for i := range samples {
		v.dense = append(v.dense, samples[i].Dense)
		v.sparse = append(v.sparse, samples[i].Sparse)
	}
	t0 := n.Trace.StageStart(obs.StageForward) // one forward span per batch
	n.Model.PredictBatch(n.Emb, v.dense, v.sparse, probs, nil)
	n.Trace.StageEnd(obs.StageForward, t0)
	viewPool.Put(v)
}

// P99 returns the current 99th-percentile latency over the tracker window.
func (n *Node) P99() float64 { return n.Lat.P99() }

// Served returns the number of requests processed.
func (n *Node) Served() uint64 { return n.served.Load() }

// Violations returns the number of requests that exceeded the SLA. Exposing
// the raw count (not just the rate) lets a fleet merge per-replica violation
// statistics exactly.
func (n *Node) Violations() uint64 { return n.violations.Load() }

// LatencySamples returns a copy of the tracker's retained latency window, the
// raw material for cross-replica quantile merging.
func (n *Node) LatencySamples() []float64 { return n.Lat.Samples() }

// ViolationRate returns the fraction of requests exceeding the SLA.
func (n *Node) ViolationRate() float64 {
	served := n.served.Load()
	if served == 0 {
		return 0
	}
	return float64(n.violations.Load()) / float64(served)
}

// ResetLatencyStats clears the latency tracker and violation counters
// (e.g. between experiment phases).
func (n *Node) ResetLatencyStats() {
	n.Lat.Reset()
	n.served.Store(0)
	n.violations.Store(0)
}
