package core

import (
	"reflect"
	"testing"

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
