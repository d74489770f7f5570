// Package simnet is the discrete-event substrate for all paper-scale cost
// experiments: a deterministic virtual clock and bandwidth/latency-modeled
// links with FIFO queueing. "26 minutes to sync 20 TB over 100 GbE" is
// computed on the virtual timeline, never waited for.
package simnet

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Common bandwidth constants (bytes per second).
const (
	Gbps100 = 100e9 / 8 // 100 GbE link payload bandwidth
	Gbps10  = 10e9 / 8
	GBps    = 1e9
)

// Clock is a virtual timeline measured in seconds. Reads and writes are
// lock-free and safe for concurrent use: a replica advances its own clock
// while fleet-level code (routing, sync triggering, merged stats) reads it
// from other goroutines. The value is stored as IEEE-754 bits in an atomic
// word; Advance and AdvanceTo are CAS loops, so concurrent advances compose
// without lost updates.
type Clock struct {
	bits atomic.Uint64 // Float64bits of the current time
}

// NewClock returns a clock at t = 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return math.Float64frombits(c.bits.Load()) }

// Advance moves time forward by dt seconds. Negative dt panics: simulated
// time is monotone.
func (c *Clock) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("simnet: clock cannot go backwards (dt=%v)", dt))
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + dt)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// AdvanceTo moves time forward to t if t is in the future; no-op otherwise.
func (c *Clock) AdvanceTo(t float64) {
	for {
		old := c.bits.Load()
		if t <= math.Float64frombits(old) {
			return
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// Link models one serialized network path: a base propagation latency plus a
// bandwidth-limited pipe with FIFO queueing. Transfers issued while the link
// is busy wait for the queue to drain, which reproduces the paper's
// "bursty full-update traffic contends with serving" effect.
type Link struct {
	BandwidthBps float64 // bytes per second
	LatencySec   float64 // per-transfer base latency

	busyUntil   float64
	bytesMoved  int64
	busySeconds float64
	transfers   int
}

// NewLink builds a link with the given bandwidth (bytes/sec) and latency.
func NewLink(bandwidthBps, latencySec float64) *Link {
	if bandwidthBps <= 0 {
		panic("simnet: link bandwidth must be positive")
	}
	if latencySec < 0 {
		panic("simnet: link latency must be non-negative")
	}
	return &Link{BandwidthBps: bandwidthBps, LatencySec: latencySec}
}

// TransferDuration returns the unqueued wire time for size bytes.
func (l *Link) TransferDuration(size int64) float64 {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	return l.LatencySec + float64(size)/l.BandwidthBps
}

// Transfer enqueues a transfer of size bytes at the clock's current time and
// returns the absolute completion time. The link serializes transfers.
func (l *Link) Transfer(c *Clock, size int64) float64 {
	start := math.Max(c.Now(), l.busyUntil)
	wire := l.TransferDuration(size)
	done := start + wire
	l.busyUntil = done
	l.bytesMoved += size
	l.busySeconds += wire
	l.transfers++
	return done
}

// TransferAndWait performs Transfer and advances the clock to completion,
// returning the elapsed time from the call.
func (l *Link) TransferAndWait(c *Clock, size int64) float64 {
	before := c.Now()
	done := l.Transfer(c, size)
	c.AdvanceTo(done)
	return done - before
}

// BytesMoved returns the cumulative payload moved over the link.
func (l *Link) BytesMoved() int64 { return l.bytesMoved }

// Transfers returns the number of transfers issued.
func (l *Link) Transfers() int { return l.transfers }

// Utilization returns busy-seconds / elapsed virtual seconds (0 when no time
// has passed).
func (l *Link) Utilization(c *Clock) float64 {
	if c.Now() <= 0 {
		return 0
	}
	u := l.busySeconds / c.Now()
	if u > 1 {
		u = 1
	}
	return u
}

// BusyUntil returns the absolute time the link's queue drains.
func (l *Link) BusyUntil() float64 { return l.busyUntil }
