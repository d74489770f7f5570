package numasim

import (
	"slices"
	"testing"
	"testing/quick"

	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
)

func TestL3CacheLRU(t *testing.T) {
	c := NewL3Cache(2)
	k := func(r int32) BlockKey { return BlockKey{Space: 0, Row: r} }
	if c.Access(k(1)) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(k(1)) {
		t.Fatal("warm access must hit")
	}
	c.Access(k(2))
	c.Access(k(3)) // evicts LRU = 1 (2 was accessed after 1's last touch? order: 1,1,2,3 → LRU is 1)
	if c.Contains(k(1)) {
		t.Fatal("LRU block must be evicted")
	}
	if !c.Contains(k(2)) || !c.Contains(k(3)) {
		t.Fatal("recently used blocks must stay")
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Fatalf("len %d cap %d", c.Len(), c.Capacity())
	}
}

// TestL3CacheHitRatio: hits and misses are counted per workload by the
// machine; ResetStats zeroes the counts without flushing the caches, and
// Flush empties a cache.
func TestL3CacheHitRatio(t *testing.T) {
	m, _ := newTestMachine()
	if m.HitRatio(Inference) != 0 {
		t.Fatal("fresh machine ratio must be 0")
	}
	m.Access(Inference, KindCached, 0, 1) // miss
	m.Access(Inference, KindCached, 0, 1) // hit
	if m.HitRatio(Inference) != 0.5 {
		t.Fatalf("ratio %v", m.HitRatio(Inference))
	}
	m.ResetStats()
	if m.HitRatio(Inference) != 0 {
		t.Fatal("ResetStats failed")
	}
	if m.Access(Inference, KindCached, 0, 1) != m.Config().L3HitLatency || m.HitRatio(Inference) != 1 {
		t.Fatal("ResetStats must not flush contents")
	}
	c := NewL3Cache(10)
	c.Access(BlockKey{0, 1})
	c.Flush()
	if c.Len() != 0 || c.Contains(BlockKey{0, 1}) {
		t.Fatal("Flush must empty the cache")
	}
}

// refLRU is the slice-based reference FuzzL3Cache checks L3Cache against:
// keys in recency order, most recent first.
type refLRU struct {
	capacity int
	keys     []BlockKey
}

func (r *refLRU) access(k BlockKey) bool {
	for i, v := range r.keys {
		if v == k {
			copy(r.keys[1:i+1], r.keys[:i])
			r.keys[0] = k
			return true
		}
	}
	if len(r.keys) == r.capacity {
		r.keys = r.keys[:len(r.keys)-1]
	}
	r.keys = append([]BlockKey{k}, r.keys...)
	return false
}

func (r *refLRU) contains(k BlockKey) bool {
	for _, v := range r.keys {
		if v == k {
			return true
		}
	}
	return false
}

// fuzzOp decodes one two-byte FuzzL3Cache step: 0xFF flushes; otherwise the
// key's Space is the high nibble of a (signed, -8..7) and its Row is b as a
// signed byte, shifted into the high bits when a is odd, so negative rows,
// sign-extended halves and rows near the int32 limits all occur.
func fuzzOp(a, b byte) (key BlockKey, flush bool) {
	if a == 0xFF {
		return BlockKey{}, true
	}
	key = BlockKey{Space: int32(int8(a)) >> 4, Row: int32(int8(b))}
	if a&1 == 1 {
		key.Row <<= 24
	}
	return key, false
}

// FuzzL3Cache replays a fuzzed sequence of accesses and flushes at a small
// capacity against refLRU. After every step the hit/miss result, Len, and
// Contains for every key seen so far must agree.
func FuzzL3Cache(f *testing.F) {
	// TestL3CacheLRU's sequence: rows 1, 1, 2, 3 at capacity 2.
	f.Add(uint8(1), []byte{0, 1, 0, 1, 0, 2, 0, 3})
	f.Add(uint8(2), []byte{0x10, 0xFF, 0xF0, 0x80, 0x71, 0x7F, 0xFF, 0, 0x10, 0xFF, 0x81, 1})
	// Keys sharing one home bucket at capacity 4, plus keys homed
	// elsewhere: evicting the run's head for an outside key leaves a hole
	// that backward-shift deletion must close, or the rest of the run
	// becomes unreachable.
	probe := NewL3Cache(4)
	home := probe.home(packKey(BlockKey{}))
	var same, other []byte
	for a := 0; a < 0xFF; a += 3 {
		for b := 0; b < 256; b += 7 {
			k, _ := fuzzOp(byte(a), byte(b))
			switch probe.home(packKey(k)) {
			case home:
				same = append(same, byte(a), byte(b))
			case (home + 4) & probe.mask:
				other = append(other, byte(a), byte(b))
			}
		}
	}
	if len(same) < 16 || len(other) < 4 {
		f.Fatalf("found %d keys sharing a bucket, %d homed opposite", len(same)/2, len(other)/2)
	}
	seq := append(append([]byte(nil), same[:8]...), other[:2]...)
	seq = append(append(seq, same[2:8]...), other[2:4]...)
	seq = append(append(seq, same[:16]...), 0xFF, 0)
	f.Add(uint8(3), append(seq, same[:6]...))

	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		capacity := 1 + int(capByte%8)
		c := NewL3Cache(capacity)
		ref := &refLRU{capacity: capacity}
		var seen []BlockKey
		for i := 0; i+1 < len(ops); i += 2 {
			key, flush := fuzzOp(ops[i], ops[i+1])
			if flush {
				c.Flush()
				ref.keys = ref.keys[:0]
			} else {
				if got, want := c.Access(key), ref.access(key); got != want {
					t.Fatalf("step %d: Access(%v) = %v, reference %v", i/2, key, got, want)
				}
				if !slices.Contains(seen, key) {
					seen = append(seen, key)
				}
			}
			if c.Len() != len(ref.keys) {
				t.Fatalf("step %d: Len %d, reference %d", i/2, c.Len(), len(ref.keys))
			}
			for _, k := range seen {
				if c.Contains(k) != ref.contains(k) {
					t.Fatalf("step %d: Contains(%v) = %v, reference %v", i/2, k, c.Contains(k), ref.contains(k))
				}
			}
		}
	})
}

// TestL3CacheAccessZeroAlloc: once built, the cache allocates nothing, on
// hits or on misses that evict.
func TestL3CacheAccessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewL3Cache(64)
	for r := int32(0); r < 64; r++ {
		c.Access(BlockKey{Space: 1, Row: r})
	}
	row := int32(64)
	allocs := testing.AllocsPerRun(200, func() {
		c.Access(BlockKey{Space: 1, Row: row % 8}) // hits on the hot set
		c.Access(BlockKey{Space: 2, Row: row})     // evicting miss
		row++
	})
	if allocs != 0 {
		t.Fatalf("Access allocates %v per run, want 0", allocs)
	}
	if c.Len() != 64 {
		t.Fatalf("len %d, want a full cache", c.Len())
	}
}

// BenchmarkL3CacheAccess: one op is one Access on a Zipf-skewed stream of
// rows from 8 criteo-sized tables, spread over 12 CCD caches the way
// Machine.Access routes them. The caches are shrunk to 512 blocks so the
// stream mixes hits with evicting misses (hit/op reports the ratio).
func BenchmarkL3CacheAccess(b *testing.B) {
	caches := make([]*L3Cache, DefaultConfig().NumCCDs)
	for i := range caches {
		caches[i] = NewL3Cache(512)
	}
	rng := tensor.NewRNG(1)
	zipf := tensor.NewZipf(rng, 6000, 1.1)
	keys := make([]BlockKey, 1<<18)
	for i := range keys {
		keys[i] = BlockKey{Space: int32(rng.Intn(8)), Row: int32(zipf.Next())}
	}
	for _, k := range keys {
		caches[int(uint32(k.Space*31+k.Row))%len(caches)].Access(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		if caches[int(uint32(k.Space*31+k.Row))%len(caches)].Access(k) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
}

func TestMachineConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumCCDs = 0 },
		func(c *Config) { c.L3BlocksPerCCD = 0 },
		func(c *Config) { c.L3BlocksPerCCD = maxL3Blocks + 1 },
		func(c *Config) { c.L3HitLatency = 0 },
		func(c *Config) { c.DRAMLatency = c.L3HitLatency },
		func(c *Config) { c.DRAMBandwidth = 0 },
		func(c *Config) { c.BlockBytes = 0 },
		func(c *Config) { c.PrefetchHit = 1.5 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d should fail validation", i)
		}
	}
	if _, err := NewMachine(Config{}, simnet.NewClock()); err == nil {
		t.Fatal("NewMachine must reject invalid config")
	}
}

func newTestMachine() (*Machine, *simnet.Clock) {
	clock := simnet.NewClock()
	cfg := DefaultConfig()
	cfg.L3BlocksPerCCD = 64 // small so eviction effects are visible
	return MustNewMachine(cfg, clock), clock
}

func TestAccessHitAfterMiss(t *testing.T) {
	m, _ := newTestMachine()
	l1 := m.Access(Inference, KindCached, 0, 42)
	l2 := m.Access(Inference, KindCached, 0, 42)
	if l1 <= l2 {
		t.Fatalf("miss %v must cost more than hit %v", l1, l2)
	}
	if l2 != m.Config().L3HitLatency {
		t.Fatalf("hit latency %v", l2)
	}
	if m.HitRatio(Inference) != 0.5 {
		t.Fatalf("hit ratio %v", m.HitRatio(Inference))
	}
	if m.DRAMBytes(Inference) != m.Config().BlockBytes {
		t.Fatalf("dram bytes %d", m.DRAMBytes(Inference))
	}
}

func TestCoLocationThrashing(t *testing.T) {
	// Without partitioning, a training scan over many rows evicts the
	// inference hot set; with partitioning it cannot. This is the causal
	// mechanism behind Figs 11 and 16.
	run := func(partition bool) float64 {
		clock := simnet.NewClock()
		cfg := DefaultConfig()
		cfg.L3BlocksPerCCD = 16 // tight cache: eviction pressure is visible
		m := MustNewMachine(cfg, clock)
		if partition {
			if err := m.Partition(8); err != nil {
				t.Fatal(err)
			}
		}
		hot := []int32{1, 2, 3, 4, 5, 6, 7, 8}
		// Warm the inference hot set.
		for _, r := range hot {
			m.Access(Inference, KindCached, 0, r)
		}
		m.ResetStats()
		scan := int32(0)
		for step := 0; step < 2000; step++ {
			m.Access(Inference, KindCached, 0, hot[step%len(hot)])
			// Training scans a huge working set (random-ish rows).
			for k := 0; k < 32; k++ {
				scan++
				m.Access(Training, KindCached, 1, 1000+scan%4096)
			}
			clock.Advance(0.001)
		}
		return m.HitRatio(Inference)
	}
	shared := run(false)
	isolated := run(true)
	if isolated < 0.95 {
		t.Fatalf("isolated inference hit ratio %v, want ~1", isolated)
	}
	if shared > isolated-0.2 {
		t.Fatalf("co-location should thrash: shared %v vs isolated %v", shared, isolated)
	}
}

func TestReusePathHitsWithoutDRAMCharge(t *testing.T) {
	m, _ := newTestMachine()
	var total float64
	for i := int32(0); i < 1000; i++ {
		total += m.Access(Training, KindReuse, 0, i)
	}
	ratio := m.HitRatio(Training)
	if ratio < 0.9 {
		t.Fatalf("reuse hit ratio %v, want ≥ PrefetchHit≈0.95", ratio)
	}
	// DRAM traffic only for the ~5% prefetch misses.
	maxBytes := int64(0.1 * 1000 * float64(m.Config().BlockBytes))
	if m.DRAMBytes(Training) > maxBytes {
		t.Fatalf("reuse path charged %d DRAM bytes", m.DRAMBytes(Training))
	}
	_ = total
}

func TestContentionInflatesMissLatency(t *testing.T) {
	clock := simnet.NewClock()
	cfg := DefaultConfig()
	cfg.L3BlocksPerCCD = 4
	cfg.DRAMBandwidth = 1e5 // tiny: easy to saturate
	m := MustNewMachine(cfg, clock)
	// Generate heavy miss traffic within short virtual time.
	var row int32
	for w := 0; w < 100; w++ {
		for i := 0; i < 50; i++ {
			row++
			m.Access(Training, KindCached, 0, row)
		}
		clock.Advance(0.11) // roll the bandwidth window
	}
	if m.DRAMUtilization() < 0.5 {
		t.Fatalf("expected saturated DRAM, util %v", m.DRAMUtilization())
	}
	inflated := m.missLatency()
	if inflated <= cfg.DRAMLatency*1.2 {
		t.Fatalf("latency %v not inflated over base %v", inflated, cfg.DRAMLatency)
	}
	if inflated > cfg.DRAMLatency*8.01 {
		t.Fatalf("inflation must be capped at 8x, got %v", inflated/cfg.DRAMLatency)
	}
}

func TestPartitionValidationAndFlush(t *testing.T) {
	m, _ := newTestMachine()
	if err := m.Partition(0); err == nil {
		t.Fatal("Partition(0) must fail")
	}
	if err := m.Partition(12); err == nil {
		t.Fatal("Partition(all) must fail")
	}
	if err := m.Partition(8); err != nil {
		t.Fatal(err)
	}
	if len(m.CCDsOf(Inference)) != 8 || len(m.CCDsOf(Training)) != 4 {
		t.Fatalf("partition sizes %d/%d", len(m.CCDsOf(Inference)), len(m.CCDsOf(Training)))
	}
	m.ShareAll()
	if len(m.CCDsOf(Inference)) != 12 || len(m.CCDsOf(Training)) != 12 {
		t.Fatal("ShareAll must give both workloads every CCD")
	}
}

func TestPowerModel(t *testing.T) {
	m, _ := newTestMachine()
	if err := m.Partition(10); err != nil {
		t.Fatal(err)
	}
	infOnly := m.Power(0.5, 0)
	coLocated := m.Power(0.5, 1.0)
	if coLocated <= infOnly {
		t.Fatal("co-located training must raise power")
	}
	// Paper Fig 5: concurrent training costs roughly 20% extra.
	ratio := coLocated / infOnly
	if ratio < 1.05 || ratio > 1.5 {
		t.Fatalf("co-location power ratio %v outside plausible band", ratio)
	}
	// Clamping.
	if m.Power(-1, -1) != m.Power(0, 0) {
		t.Fatal("loads must clamp at 0")
	}
	if m.Power(2, 2) < m.Power(1, 1) {
		t.Fatal("loads must clamp at 1")
	}
}

func TestResetStats(t *testing.T) {
	m, _ := newTestMachine()
	m.Access(Inference, KindCached, 0, 1)
	m.ResetStats()
	if m.HitRatio(Inference) != 0 || m.DRAMBytes(Inference) != 0 {
		t.Fatal("ResetStats failed")
	}
}

// --- Controller (Algorithm 2) tests ---

func TestControllerConfigValidate(t *testing.T) {
	cfg := DefaultControllerConfig(12)
	if err := cfg.Validate(12); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.THigh = bad.TLow
	if err := bad.Validate(12); err == nil {
		t.Fatal("THigh <= TLow must fail")
	}
	bad = cfg
	bad.MinInfCCDs = 0
	if err := bad.Validate(12); err == nil {
		t.Fatal("MinInfCCDs 0 must fail")
	}
	bad = cfg
	bad.CyclePeriod = 0
	if err := bad.Validate(12); err == nil {
		t.Fatal("CyclePeriod 0 must fail")
	}
}

func TestControllerMovesCCDsUnderPressure(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12)
	ctl := MustNewController(cfg, m, clock, 10)
	start := ctl.InferenceCCDs()
	// Sustained SLA violation: controller must grow inference.
	for i := 0; i < 3; i++ {
		clock.Advance(cfg.CyclePeriod + 0.01)
		ctl.Observe(0.015) // 15 ms > THigh
	}
	if ctl.InferenceCCDs() <= start {
		t.Fatalf("controller did not grow inference: %d", ctl.InferenceCCDs())
	}
	toInf, _ := ctl.Moves()
	if toInf == 0 {
		t.Fatal("move counter must advance")
	}
}

func TestControllerReclaimsForTraining(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12)
	ctl := MustNewController(cfg, m, clock, 11)
	for i := 0; i < 5; i++ {
		clock.Advance(cfg.CyclePeriod + 0.01)
		ctl.Observe(0.003) // 3 ms < TLow
	}
	if ctl.TrainingCCDs() <= 1 {
		t.Fatalf("controller did not reclaim for training: %d", ctl.TrainingCCDs())
	}
	// Cap respected.
	if ctl.TrainingCCDs() > cfg.MaxTrainCCDs {
		t.Fatalf("training %d exceeds cap %d", ctl.TrainingCCDs(), cfg.MaxTrainCCDs)
	}
}

func TestControllerHysteresisBand(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12)
	ctl := MustNewController(cfg, m, clock, 9)
	before := ctl.InferenceCCDs()
	for i := 0; i < 5; i++ {
		clock.Advance(cfg.CyclePeriod + 0.01)
		if ctl.Observe(0.008) { // between TLow and THigh: no action
			t.Fatal("controller must not act inside the hysteresis band")
		}
	}
	if ctl.InferenceCCDs() != before {
		t.Fatal("partition changed inside hysteresis band")
	}
}

func TestControllerCyclePeriodThrottling(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12)
	ctl := MustNewController(cfg, m, clock, 9)
	clock.Advance(cfg.CyclePeriod + 0.01)
	if !ctl.Observe(0.02) {
		t.Fatal("first observation should adjust")
	}
	// Immediately after, another violation must be ignored.
	if ctl.Observe(0.02) {
		t.Fatal("adjustments must respect the cycle period")
	}
}

func TestControllerRespectsMinInference(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12) // MinInf = 6
	ctl := MustNewController(cfg, m, clock, 6)
	for i := 0; i < 10; i++ {
		clock.Advance(cfg.CyclePeriod + 0.01)
		ctl.Observe(0.001)
	}
	if ctl.InferenceCCDs() < cfg.MinInfCCDs {
		t.Fatalf("inference %d below minimum %d", ctl.InferenceCCDs(), cfg.MinInfCCDs)
	}
}

// Property: under arbitrary P99 sequences the controller invariants hold.
func TestPropertyControllerInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		m, clock := newTestMachine()
		cfg := DefaultControllerConfig(12)
		ctl := MustNewController(cfg, m, clock, 6+rng.Intn(5))
		for i := 0; i < 60; i++ {
			clock.Advance(cfg.CyclePeriod * (0.5 + rng.Float64()))
			ctl.Observe(rng.Float64() * 0.03)
			n := m.Config().NumCCDs
			if ctl.InferenceCCDs() < cfg.MinInfCCDs || ctl.InferenceCCDs() > n-1 {
				return false
			}
			if ctl.TrainingCCDs() < 1 || ctl.TrainingCCDs() > cfg.MaxTrainCCDs {
				return false
			}
			if len(m.CCDsOf(Inference))+len(m.CCDsOf(Training)) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
