package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/numasim"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

func testProfile() trace.Profile {
	p := trace.Profiles()["criteo"]
	p.NumTables = 3
	p.TableSize = 300
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 1}
	return p
}

func testOptions() Options {
	o := DefaultOptions(testProfile(), 9)
	o.TrainInterval = 4
	o.TrainBatch = 8
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := testOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testOptions()
	bad.TrainBatch = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero batch must fail when training enabled")
	}
	bad.EnableTraining = false
	if err := bad.Validate(); err != nil {
		t.Fatal("training params irrelevant when training disabled")
	}
	bad = testOptions()
	bad.EmbLR = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero LR must fail")
	}
	if _, err := New(Options{}); err == nil {
		t.Fatal("New must reject empty options")
	}
}

func TestServeInterleavesTraining(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 3)
	for i := 0; i < 40; i++ {
		s.Serve(gen.Next())
	}
	if s.TrainSteps() == 0 {
		t.Fatal("training ticks must run during serving")
	}
	// Training populated the LoRA tables.
	active := 0
	for _, a := range s.LoRA.Adapters {
		active += a.ActiveCount()
	}
	if active == 0 {
		t.Fatal("co-located training must populate adapters")
	}
	if s.Node.Served() != 40 {
		t.Fatalf("served %d", s.Node.Served())
	}
}

func TestTrainingDisabled(t *testing.T) {
	o := testOptions()
	o.EnableTraining = false
	s := MustNew(o)
	gen := trace.MustNewGenerator(testProfile(), 3)
	for i := 0; i < 40; i++ {
		s.Serve(gen.Next())
	}
	if s.TrainSteps() != 0 {
		t.Fatal("Only-Infer configuration must not train")
	}
}

func TestTrainTickEmptyRing(t *testing.T) {
	s := MustNew(testOptions())
	s.TrainTick() // no samples served yet: must be a no-op
	if s.TrainSteps() != 0 {
		t.Fatal("empty ring must not count a training step")
	}
}

func TestBaseStaysFrozenDuringServing(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 5)
	for i := 0; i < 60; i++ {
		s.Serve(gen.Next())
	}
	for _, tab := range s.Base.Tables {
		if tab.DirtyCount() != 0 {
			t.Fatal("co-located LoRA training must never write the base EMT")
		}
	}
}

func TestSchedulingTogglesController(t *testing.T) {
	o := testOptions()
	o.EnableScheduling = false
	s := MustNew(o)
	if s.Controller != nil {
		t.Fatal("controller must be nil when scheduling disabled")
	}
	// With scheduling disabled, both workloads share all CCDs.
	if len(s.Machine.CCDsOf(numasim.Training)) != o.Machine.NumCCDs {
		t.Fatal("unscheduled machine must share all CCDs")
	}
	o.EnableScheduling = true
	s2 := MustNew(o)
	if s2.Controller == nil {
		t.Fatal("controller must exist when scheduling enabled")
	}
	if len(s2.Machine.CCDsOf(numasim.Inference)) >= o.Machine.NumCCDs {
		t.Fatal("scheduling must partition CCDs")
	}
}

func TestReuseLowersTrainingDRAMTraffic(t *testing.T) {
	run := func(reuse bool) int64 {
		o := testOptions()
		o.EnableReuse = reuse
		s := MustNew(o)
		gen := trace.MustNewGenerator(testProfile(), 7)
		for i := 0; i < 200; i++ {
			s.Serve(gen.Next())
		}
		return s.Machine.DRAMBytes(numasim.Training)
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("reuse must cut training DRAM traffic: with %d without %d", with, without)
	}
}

func TestFullSyncInstallsFreshState(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 11)
	for i := 0; i < 50; i++ {
		s.Serve(gen.Next())
	}
	// Build a "training cluster" state to install.
	rng := tensor.NewRNG(99)
	freshModel := dlrm.MustNewModel(dlrm.ConfigForProfile(testProfile()), rng)
	freshBase := emt.NewGroup(3, 300, 16, rng)
	s.FullSync(freshBase, freshModel)
	if s.FullSyncs() != 1 {
		t.Fatalf("full syncs %d", s.FullSyncs())
	}
	for _, a := range s.LoRA.Adapters {
		if a.ActiveCount() != 0 {
			t.Fatal("full sync must reset adapters")
		}
	}
	// Base must equal the fresh weights.
	got := s.Base.Tables[0].PeekRow(0)
	want := freshBase.Tables[0].PeekRow(0)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("full sync must install fresh base weights")
		}
	}
}

func TestMemoryOverheadBounded(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 13)
	for i := 0; i < 400; i++ {
		s.Serve(gen.Next())
	}
	// Paper claim: adapter memory < ~2-5% of EMTs under pruning. Our scaled
	// tables are small, so allow a loose but meaningful bound.
	if ov := s.MemoryOverhead(); ov <= 0 || ov > 0.30 {
		t.Fatalf("memory overhead %v out of expected band", ov)
	}
}

func TestPowerAndUtilization(t *testing.T) {
	s := MustNew(testOptions())
	pOn := s.Power(0.5)
	o := testOptions()
	o.EnableTraining = false
	sOff := MustNew(o)
	pOff := sOff.Power(0.5)
	if pOn <= pOff {
		t.Fatalf("co-located training must raise power: %v vs %v", pOn, pOff)
	}
	uOn := s.CPUUtilization(0.2)
	uOff := sOff.CPUUtilization(0.2)
	if uOn <= uOff {
		t.Fatalf("training must raise utilization: %v vs %v", uOn, uOff)
	}
	if u := s.CPUUtilization(5); u > 1 {
		t.Fatalf("utilization must clamp at 1, got %v", u)
	}
}

func TestIsolationAblationP99Ordering(t *testing.T) {
	// The Fig 16 property: P99(full system) < P99(naive co-location), and
	// only-inference is the floor.
	run := func(training, scheduling, reuse bool) float64 {
		o := testOptions()
		o.EnableTraining = training
		o.EnableScheduling = scheduling
		o.EnableReuse = reuse
		o.Machine.L3BlocksPerCCD = 48 // tight caches make contention visible
		s := MustNew(o)
		gen := trace.MustNewGenerator(testProfile(), 21)
		for i := 0; i < 600; i++ {
			s.Serve(gen.Next())
		}
		return s.Node.P99()
	}
	onlyInfer := run(false, false, false)
	naive := run(true, false, false)
	full := run(true, true, true)
	if naive <= onlyInfer {
		t.Fatalf("naive co-location should hurt P99: %v vs %v", naive, onlyInfer)
	}
	if full >= naive {
		t.Fatalf("isolation should recover P99: full %v vs naive %v", full, naive)
	}
}

// TestServeBatchMatchesSequential: the batch-amortized path must leave every
// virtual-time statistic bit-identical to a plain Serve loop — the System
// half of the lock-split/batching determinism contract.
func TestServeBatchMatchesSequential(t *testing.T) {
	const requests = 600
	for _, batch := range []int{1, 3, 16, 64} {
		seq := MustNew(testOptions())
		bat := MustNew(testOptions())
		genA := trace.MustNewGenerator(testProfile(), 5)
		genB := trace.MustNewGenerator(testProfile(), 5)

		var seqResp []Response
		for i := 0; i < requests; i++ {
			r, err := seq.Serve(genA.Next())
			if err != nil {
				t.Fatal(err)
			}
			seqResp = append(seqResp, r)
		}
		var batResp []Response
		buf := make([]Response, batch)
		pending := make([]trace.Sample, 0, batch)
		flush := func() {
			if len(pending) == 0 {
				return
			}
			if err := bat.ServeBatch(pending, buf[:len(pending)]); err != nil {
				t.Fatal(err)
			}
			batResp = append(batResp, buf[:len(pending)]...)
			pending = pending[:0]
		}
		for i := 0; i < requests; i++ {
			pending = append(pending, genB.Next())
			if len(pending) == batch {
				flush()
			}
		}
		flush()

		for i := range seqResp {
			if seqResp[i].Latency != batResp[i].Latency {
				t.Fatalf("batch=%d req %d: latency %v != %v", batch, i, batResp[i].Latency, seqResp[i].Latency)
			}
		}
		ss, bs := seq.Stats(), bat.Stats()
		if ss.Served != bs.Served || ss.Violations != bs.Violations ||
			ss.TrainSteps != bs.TrainSteps || ss.VirtualTime != bs.VirtualTime ||
			ss.P99 != bs.P99 || ss.InferenceHitRatio != bs.InferenceHitRatio ||
			ss.TrainingHitRatio != bs.TrainingHitRatio {
			t.Fatalf("batch=%d: stats diverged:\n seq %+v\n bat %+v", batch, ss, bs)
		}
	}
}

// TestServeBatchValidation covers the error paths: mismatched response slots
// and malformed samples (checked before any state mutates).
func TestServeBatchValidation(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 6)
	good := gen.Next()
	if err := s.ServeBatch([]trace.Sample{good}, make([]Response, 2)); err == nil {
		t.Fatal("length mismatch must error")
	}
	bad := good
	bad.Sparse = bad.Sparse[:1]
	if err := s.ServeBatch([]trace.Sample{good, bad}, make([]Response, 2)); err == nil {
		t.Fatal("malformed sample must error")
	}
	if got := s.Stats().Served; got != 0 {
		t.Fatalf("failed batch must serve nothing, served %d", got)
	}
	if err := s.ServeBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestQuantizationVirtualTimeInvariant: the quantization knob changes served
// probabilities only. Every virtual-time statistic — latency, P99, train
// steps, hit ratios, the clock itself — must be bit-identical across modes,
// because request latency is memory-model + dense-time accounting that never
// reads a probability, and training always runs through the float64 weights.
func TestQuantizationVirtualTimeInvariant(t *testing.T) {
	run := func(mode string) Stats {
		o := testOptions()
		o.Quantization = mode
		s := MustNew(o)
		gen := trace.MustNewGenerator(testProfile(), 5)
		for i := 0; i < 400; i++ {
			if _, err := s.Serve(gen.Next()); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats()
	}
	baseStats := run("")
	for _, mode := range []string{"none", "int8", "f16"} {
		st := run(mode)
		if st.Served != baseStats.Served || st.P50 != baseStats.P50 ||
			st.P99 != baseStats.P99 || st.MeanLatency != baseStats.MeanLatency ||
			st.Violations != baseStats.Violations || st.TrainSteps != baseStats.TrainSteps ||
			st.VirtualTime != baseStats.VirtualTime ||
			st.InferenceHitRatio != baseStats.InferenceHitRatio ||
			st.TrainingHitRatio != baseStats.TrainingHitRatio {
			t.Fatalf("quant=%q: virtual-time stats diverged:\n base %+v\n quant %+v", mode, baseStats, st)
		}
	}

	// The knob must actually reach the serving path: on one system, flipping
	// quantization moves the served probability and flipping it back
	// restores it exactly.
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 5)
	sample := gen.Next()
	before := s.Node.Predict(sample)
	if err := s.Model.SetQuantization("int8"); err != nil {
		t.Fatal(err)
	}
	if got := s.Node.Predict(sample); got == before {
		t.Fatal("quant=int8 served a bit-identical probability; quantized path not active")
	}
	if err := s.Model.SetQuantization("none"); err != nil {
		t.Fatal(err)
	}
	if got := s.Node.Predict(sample); got != before {
		t.Fatalf("restoring quant=none must restore the float64 probability: %v != %v", got, before)
	}
}

func TestQuantizationOptionValidation(t *testing.T) {
	o := testOptions()
	o.Quantization = "int7"
	if _, err := New(o); err == nil {
		t.Fatal("invalid quantization mode must fail validation")
	}
}

// TestFrozenTrainTickMatchesAccumulatingReference runs the same request
// stream through two systems: one with the train tick's frozen-dense
// backward, one with the reference that accumulates dense gradients through
// Backward and discards them with ZeroGrad. Every served probability and
// latency, the virtual-time Stats, and the final adapter state (rows, B,
// rank, adaptation and prune counts) must be identical.
func TestFrozenTrainTickMatchesAccumulatingReference(t *testing.T) {
	const requests = 1200
	frozen := MustNew(testOptions())
	ref := MustNew(testOptions())
	ref.trainBackward = func(m *dlrm.Model, dLogit float64, cache *dlrm.ForwardCache) [][]float64 {
		dEmb := m.Backward(dLogit, cache)
		m.Bottom.ZeroGrad()
		m.Top.ZeroGrad()
		return dEmb
	}
	genA := trace.MustNewGenerator(testProfile(), 21)
	genB := trace.MustNewGenerator(testProfile(), 21)
	for i := 0; i < requests; i++ {
		ra, err := frozen.Serve(genA.Next())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ref.Serve(genB.Next())
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("request %d: frozen %+v, reference %+v", i, ra, rb)
		}
	}
	fs, rs := frozen.Stats(), ref.Stats()
	if fs.TrainSteps < uint64(requests/testOptions().TrainInterval) || fs.LoRAHotRows == 0 {
		t.Fatalf("too little training to compare: %d ticks, %d hot rows", fs.TrainSteps, fs.LoRAHotRows)
	}
	if !reflect.DeepEqual(fs, rs) {
		t.Fatalf("stats diverged:\n frozen    %+v\n reference %+v", fs, rs)
	}
	if !reflect.DeepEqual(frozen.LoRA.ExportFull(), ref.LoRA.ExportFull()) {
		t.Fatal("adapter state diverged between frozen and reference train ticks")
	}
	for i, a := range frozen.LoRA.Adapters {
		b := ref.LoRA.Adapters[i]
		if a.Adaptations() != b.Adaptations() || a.PrunedTotal() != b.PrunedTotal() {
			t.Fatalf("table %d: adaptations %d/%d, pruned %d/%d", i,
				a.Adaptations(), b.Adaptations(), a.PrunedTotal(), b.PrunedTotal())
		}
	}
}

// TestServeRejectsHostileSample: a sample whose shape does not match the
// profile — an id past the table, a negative id, a short dense vector — is
// an error from Serve and ServeBatch, never a panic inside a critical
// section, and the node keeps serving (and training) afterwards.
func TestServeRejectsHostileSample(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 12)
	withIDs := func(x trace.Sample, ids []int32) trace.Sample {
		x.Sparse = append([][]int32(nil), x.Sparse...)
		x.Sparse[1] = ids
		return x
	}
	hostile := []struct {
		name   string
		mutate func(trace.Sample) trace.Sample
	}{
		{"out-of-range id", func(x trace.Sample) trace.Sample { return withIDs(x, []int32{1 << 30}) }},
		{"id at table size", func(x trace.Sample) trace.Sample { return withIDs(x, []int32{300}) }},
		{"negative id", func(x trace.Sample) trace.Sample { return withIDs(x, []int32{0, -1}) }},
		{"short dense", func(x trace.Sample) trace.Sample { x.Dense = x.Dense[:len(x.Dense)-1]; return x }},
	}
	for _, h := range hostile {
		bad := h.mutate(gen.Next())
		if _, err := s.Serve(bad); err == nil {
			t.Fatalf("%s: Serve must reject the sample", h.name)
		}
		if err := s.ServeBatch([]trace.Sample{gen.Next(), bad}, make([]Response, 2)); err == nil {
			t.Fatalf("%s: ServeBatch must reject the batch", h.name)
		}
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 300; i++ {
			if _, err := s.Serve(gen.Next()); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("node wedged after hostile samples")
	}
	if st := s.Stats(); st.Served != 300 || st.TrainSteps == 0 {
		t.Fatalf("after hostile samples: served %d, train steps %d; want 300 served and training", st.Served, st.TrainSteps)
	}
}

// TestLockRuleConcurrentWriters exercises the adapter lock rule under the
// race detector: forwards (Serve, ServeBatch) run while another goroutine
// publishes merged state, runs train ticks and installs full syncs — every
// write holding the node mutex and the parameter write lock.
func TestLockRuleConcurrentWriters(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 13)
	for i := 0; i < 40; i++ {
		if _, err := s.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	donor := MustNew(testOptions())
	for i := 0; i < 40; i++ {
		donor.Serve(gen.Next())
	}
	state := donor.SnapshotLoRA()
	rng := tensor.NewRNG(77)
	freshModel := dlrm.MustNewModel(dlrm.ConfigForProfile(testProfile()), rng)
	freshBase := emt.NewGroup(3, 300, 16, rng)

	const servers, perServer, batch = 3, 60, 4
	samples := make([][]trace.Sample, servers)
	for g := range samples {
		samples[g] = gen.Batch(perServer, 1)
	}
	var wg sync.WaitGroup
	errs := make(chan error, servers)
	for g := 0; g < servers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := samples[g]
			if g == 0 { // one batched lane
				resps := make([]Response, batch)
				for i := 0; i < len(mine); i += batch {
					if err := s.ServeBatch(mine[i:i+batch], resps); err != nil {
						errs <- err
						return
					}
				}
				return
			}
			for _, x := range mine {
				if _, err := s.Serve(x); err != nil {
					errs <- err
					return
				}
				_ = s.AdapterEpoch()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			s.PublishLoRA(state, int64(i))
			s.TrainTick()
			if i%10 == 9 {
				s.FullSync(freshBase, freshModel)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := s.Stats().Served, uint64(40+servers*perServer); got != want {
		t.Fatalf("served %d, want %d", got, want)
	}
	if s.AdapterEpoch() != 29 || s.FullSyncs() != 3 {
		t.Fatalf("epoch %d, full syncs %d; want 29 and 3", s.AdapterEpoch(), s.FullSyncs())
	}
}

// TestMemoryModelStatsPinned pins the virtual-time statistics the simulated
// L3 decides (P99, violations, both workloads' hit ratios and DRAM traffic)
// to literals recorded from the container/list LRU the current cache
// replaced, so any drift in hit, miss or eviction order shows. The L3 is
// shrunk so both workloads evict, and the run is long enough that the
// Algorithm 2 controller repartitions, flushing the reassigned CCD. The
// reuse-off run sends the trainer's reads through the cached path too.
func TestMemoryModelStatsPinned(t *testing.T) {
	type pinned struct {
		p99                float64
		violations         uint64
		infHit, trainHit   float64
		infDRAM, trainDRAM int64
	}
	cases := []struct {
		reuse bool
		want  pinned
	}{
		{true, pinned{0.0060400021399667995, 0, 0.7107333333333333, 0.95, 1110784, 384000}},
		{false, pinned{0.006040006139322823, 0, 0.7107333333333333, 0.2551333333333333, 1110784, 11441152}},
	}
	for _, tc := range cases {
		p := trace.Profiles()["criteo"]
		o := DefaultOptions(p, 11)
		o.EnableReuse = tc.reuse
		o.Machine.L3BlocksPerCCD = 512
		s := MustNew(o)
		gen := trace.MustNewGenerator(p, 11)
		for i := 0; i < 3000; i++ {
			if _, err := s.Serve(gen.Next()); err != nil {
				t.Fatal(err)
			}
		}
		if toInf, toTrain := s.Controller.Moves(); toInf+toTrain == 0 {
			t.Fatalf("reuse=%v: controller never repartitioned, so Flush went unexercised", tc.reuse)
		}
		st := s.Stats()
		got := pinned{
			p99:        st.P99,
			violations: st.Violations,
			infHit:     st.InferenceHitRatio,
			trainHit:   st.TrainingHitRatio,
			infDRAM:    s.Machine.DRAMBytes(numasim.Inference),
			trainDRAM:  s.Machine.DRAMBytes(numasim.Training),
		}
		// The literals were recorded on amd64, where Go never fuses a
		// multiply-add; architectures that do may round the float P99
		// differently in its last bits, so P99 is compared on amd64 only.
		if runtime.GOARCH != "amd64" {
			got.p99 = tc.want.p99
		}
		if got != tc.want {
			t.Fatalf("reuse=%v: virtual-time stats drifted\n got  %+v\n want %+v", tc.reuse, got, tc.want)
		}
	}
}
