package simnet

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestClockMonotone(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("clock must start at 0")
	}
	c.Advance(5)
	c.Advance(2.5)
	if c.Now() != 7.5 {
		t.Fatalf("now = %v", c.Now())
	}
	c.AdvanceTo(3) // past: no-op
	if c.Now() != 7.5 {
		t.Fatal("AdvanceTo must not go backwards")
	}
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Fatalf("AdvanceTo failed: %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance must panic")
		}
	}()
	c.Advance(-1)
}

func TestLinkTransferDuration(t *testing.T) {
	l := NewLink(1000, 0.1) // 1000 B/s, 100 ms latency
	if d := l.TransferDuration(500); math.Abs(d-0.6) > 1e-12 {
		t.Fatalf("duration = %v, want 0.6", d)
	}
	if d := l.TransferDuration(0); d != 0.1 {
		t.Fatalf("latency-only duration = %v", d)
	}
}

func TestPaperScaleSyncArithmetic(t *testing.T) {
	// Paper §I: syncing 20 TB (10% of 200 TB) over 100 GbE takes >26 min.
	l := NewLink(Gbps100, 0.001)
	c := NewClock()
	elapsed := l.TransferAndWait(c, 20*(1<<40))
	minutes := elapsed / 60
	if minutes < 26 || minutes > 35 {
		t.Fatalf("20 TB over 100GbE = %.1f min, paper says >26 min", minutes)
	}
	// Paper §II-C: full 200 TB takes over four hours.
	c2 := NewClock()
	l2 := NewLink(Gbps100, 0.001)
	elapsed2 := l2.TransferAndWait(c2, 200*(1<<40))
	if elapsed2/3600 < 4 {
		t.Fatalf("200 TB over 100GbE = %.1f h, paper says >4 h", elapsed2/3600)
	}
	// Paper §II-C: QuickUpdate's 10 TB delta takes >14 min.
	c3 := NewClock()
	l3 := NewLink(Gbps100, 0.001)
	elapsed3 := l3.TransferAndWait(c3, 10*(1<<40))
	if elapsed3/60 < 14 {
		t.Fatalf("10 TB over 100GbE = %.1f min, paper says >14 min", elapsed3/60)
	}
}

func TestLinkFIFOQueueing(t *testing.T) {
	l := NewLink(100, 0) // 100 B/s
	c := NewClock()
	d1 := l.Transfer(c, 100) // done at 1s
	d2 := l.Transfer(c, 100) // queued: done at 2s
	if d1 != 1 || d2 != 2 {
		t.Fatalf("fifo times %v %v, want 1 2", d1, d2)
	}
	// After the queue drains, a transfer starts immediately.
	c.AdvanceTo(5)
	d3 := l.Transfer(c, 100)
	if d3 != 6 {
		t.Fatalf("post-drain transfer done at %v, want 6", d3)
	}
	if l.Transfers() != 3 || l.BytesMoved() != 300 {
		t.Fatalf("stats: %d transfers, %d bytes", l.Transfers(), l.BytesMoved())
	}
}

func TestLinkUtilization(t *testing.T) {
	l := NewLink(100, 0)
	c := NewClock()
	l.TransferAndWait(c, 100) // 1s busy of 1s elapsed
	if u := l.Utilization(c); math.Abs(u-1) > 1e-12 {
		t.Fatalf("utilization = %v, want 1", u)
	}
	c.Advance(1) // idle second
	if u := l.Utilization(c); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if NewLink(100, 0).Utilization(NewClock()) != 0 {
		t.Fatal("zero-time utilization must be 0")
	}
}

func TestLinkValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewLink(0, 0) },
		func() { NewLink(-1, 0) },
		func() { NewLink(1, -1) },
		func() { NewLink(1, 0).TransferDuration(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: completion times on one link are non-decreasing in issue order
// and total busy time equals the sum of wire durations.
func TestPropertyLinkSerialization(t *testing.T) {
	f := func(seed uint64) bool {
		sizes := []int64{100, 5000, 1, 999, 12345}
		l := NewLink(1e4, 0.01)
		c := NewClock()
		last := 0.0
		wantBusy := 0.0
		for i, s := range sizes {
			s = s + int64(seed%97) // vary sizes a little
			done := l.Transfer(c, s)
			if done < last {
				return false
			}
			last = done
			wantBusy += l.TransferDuration(s)
			if i == 2 {
				c.AdvanceTo(done) // let queue drain mid-sequence
			}
		}
		c.AdvanceTo(last)
		return math.Abs(l.Utilization(c)*c.Now()-wantBusy) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestClockConcurrent exercises the lock-free clock: concurrent Advance
// calls must never lose an update (the fleet reads replica clocks while
// their owners advance them), and AdvanceTo must stay monotone under racing
// maximum writes.
func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Advance(0.001)
			}
		}()
	}
	stop := make(chan struct{})
	go func() { // concurrent reader: time must never appear to move backwards
		last := 0.0
		for {
			select {
			case <-stop:
				return
			default:
				if now := c.Now(); now < last {
					t.Errorf("clock went backwards: %v after %v", now, last)
					return
				} else {
					last = now
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	want := float64(writers*per) * 0.001
	if got := c.Now(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("lost updates: clock at %v, want %v", got, want)
	}
	c.AdvanceTo(5)
	c.AdvanceTo(4) // no-op: already past
	if c.Now() < 5 {
		t.Fatalf("AdvanceTo regressed the clock to %v", c.Now())
	}
}
