package liveupdate

import (
	"strings"
	"testing"
	"time"
)

func smallProfile(t *testing.T) Profile {
	t.Helper()
	p, err := ProfileByName("criteo")
	if err != nil {
		t.Fatal(err)
	}
	p.NumTables = 3
	p.TableSize = 300
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 1}
	return p
}

func TestPublicQuickstartFlow(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.(*System); !ok {
		t.Fatalf("single-replica New must build a *System, got %T", srv)
	}
	gen := NewWorkload(p, 42)
	for i := 0; i < 100; i++ {
		resp, err := srv.Serve(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Prob <= 0 || resp.Prob >= 1 || resp.Latency <= 0 {
			t.Fatalf("bad serve output: %+v", resp)
		}
		if resp.Replica != 0 {
			t.Fatalf("single node must report replica 0, got %d", resp.Replica)
		}
	}
	st := srv.Stats()
	if st.P99 <= 0 {
		t.Fatal("P99 must be measurable")
	}
	if st.Served != 100 {
		t.Fatalf("Served = %d, want 100", st.Served)
	}
	if st.MemoryOverhead < 0 {
		t.Fatal("overhead must be non-negative")
	}
}

func TestWithTrainingDisabled(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p), WithSeed(7), WithTraining(false))
	if err != nil {
		t.Fatal(err)
	}
	gen := NewWorkload(p, 7)
	for i := 0; i < 50; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.TrainSteps != 0 {
		t.Fatalf("training disabled via WithTraining(false), but %d train steps ran", st.TrainSteps)
	}
}

func TestNewOptionValidation(t *testing.T) {
	p := smallProfile(t)
	if _, err := New(); err == nil {
		t.Fatal("New without a profile must error")
	}
	if _, err := New(WithProfile(p), WithReplicas(0)); err == nil {
		t.Fatal("WithReplicas(0) must error")
	}
	if _, err := New(WithProfile(p), WithRouter(RouterPolicy("bogus"))); err == nil {
		t.Fatal("unknown router policy must error")
	}
	if _, err := New(WithProfile(p), WithSyncEvery(-time.Second)); err == nil {
		t.Fatal("negative sync interval must error")
	}
}

func TestServeRejectsMismatchedSample(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	bad := Sample{Dense: make([]float64, p.NumDense), Sparse: [][]int32{{1}}}
	if _, err := srv.Serve(bad); err == nil {
		t.Fatal("sample with wrong sparse arity must be rejected")
	}
}

func TestWithSystemOptionsOverride(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p), WithSystemOptions(func(o *Options) {
		o.Node.SLA = 0.042
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sla := srv.Stats().SLA; sla != 0.042 {
		t.Fatalf("SLA override not applied: %v", sla)
	}
}

func TestRouterPoliciesExposed(t *testing.T) {
	ps := RouterPolicies()
	if len(ps) != 3 {
		t.Fatalf("want 3 router policies, got %v", ps)
	}
	want := map[RouterPolicy]bool{RoundRobinRouter: true, LeastLoadedRouter: true, HashRouter: true}
	for _, p := range ps {
		if !want[p] {
			t.Fatalf("unexpected policy %q", p)
		}
	}
}

func TestPublicComparison(t *testing.T) {
	p := smallProfile(t)
	cfg := NewComparison(p, DeltaUpdate, 7)
	cfg.SamplesPerWindow = 150
	res, err := RunComparison(cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != DeltaUpdate || len(res.AUCSeries) != 4 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestPublicCostModel(t *testing.T) {
	p, err := ProfileByName("bd-tb")
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCostModel(p)
	if cm.HourlyCost(LiveUpdate, 300) >= cm.HourlyCost(DeltaUpdate, 300) {
		t.Fatal("LiveUpdate must be cheaper than DeltaUpdate at 5-min updates")
	}
}

func TestRunExperimentKnownAndUnknown(t *testing.T) {
	out, err := RunExperiment("table2", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Criteo") {
		t.Fatalf("table2 output missing datasets:\n%s", out)
	}
}

func TestRunExperimentUnknownIDError(t *testing.T) {
	_, err := RunExperiment("nope", 1, true)
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	// The error must name the bad id and list the valid ones, so a CLI user
	// can self-correct.
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("error must quote the unknown id: %v", err)
	}
	for _, id := range []string{"table2", "fig19"} {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error must list valid id %q: %v", id, err)
		}
	}
}

func TestExperimentIDsStable(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 24 {
		t.Fatalf("expected 24 experiments, got %d", len(ids))
	}
	for _, want := range []string{"fig14", "table3", "fig16", "fig19", "elastic", "wire", "faultwire", "syncscale", "kernels"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing experiment %q", want)
		}
	}
}

func TestWithChaosDrivePublicAPI(t *testing.T) {
	p := smallProfile(t)
	schedule, err := ParseChaosScript("@500ms kill 1; @900ms replace 1; @1300ms scale 4")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(
		WithProfile(p),
		WithSeed(42),
		WithReplicas(3),
		WithRouter(HashRouter),
		WithSyncEvery(300*time.Millisecond),
		WithChaos(schedule),
	)
	if err != nil {
		t.Fatal(err)
	}
	// The ElasticServer surface must be reachable from the public type.
	if _, ok := srv.(ElasticServer); !ok {
		t.Fatalf("%T must implement ElasticServer", srv)
	}
	// Drive picks the attached schedule up without DriveConfig.Chaos.
	rep, err := Drive(srv, NewWorkload(p, 7), DriveConfig{Requests: 3000, Concurrency: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 3000 {
		t.Fatalf("served %d of 3000 under churn", rep.Served)
	}
	if len(rep.Chaos)+rep.ChaosSkipped != len(schedule) {
		t.Fatalf("chaos accounting: applied %d + skipped %d != %d scheduled",
			len(rep.Chaos), rep.ChaosSkipped, len(schedule))
	}
	if len(rep.Chaos) == 0 {
		t.Fatal("no chaos event fired; fixture timestamps too late")
	}
	st := srv.Stats()
	if st.Fails == 0 || st.Members == 0 {
		t.Fatalf("fleet counters missing after churn: %+v", st)
	}
}

func TestWithChaosValidation(t *testing.T) {
	p := smallProfile(t)
	if _, err := New(WithProfile(p), WithChaos(ChaosSchedule{{At: time.Second, Action: ChaosKill, Arg: 0}})); err == nil {
		t.Fatal("WithChaos on a single node must be rejected")
	}
	if _, err := New(WithProfile(p), WithReplicas(2),
		WithChaos(ChaosSchedule{{At: -time.Second, Action: ChaosKill, Arg: 0}})); err == nil {
		t.Fatal("invalid schedule must be rejected")
	}
	if _, err := ParseChaosScript("@1s detonate 2"); err == nil {
		t.Fatal("unknown chaos action must be rejected")
	}
}

func TestElasticServerScaleAndFail(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p), WithReplicas(2), WithSyncEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	es := srv.(ElasticServer)
	if err := es.Scale(4); err != nil {
		t.Fatal(err)
	}
	if err := es.FailReplica(0); err != nil {
		t.Fatal(err)
	}
	if slot, err := es.ReplaceReplica(0); err != nil || slot != 0 {
		t.Fatalf("replace: slot=%d err=%v", slot, err)
	}
	gen := NewWorkload(p, 9)
	for i := 0; i < 50; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Members != 4 || st.Served != 50 {
		t.Fatalf("post-churn stats: members=%d served=%d", st.Members, st.Served)
	}
}

// TestWithBatchSize: the construction-attached batch hint surfaces through
// DefaultBatchSize on both server shapes, Drive picks it up when DriveConfig
// carries none, and virtual-time stats match an unbatched drive.
func TestWithBatchSize(t *testing.T) {
	p := smallProfile(t)
	if _, err := New(WithProfile(p), WithBatchSize(-1)); err == nil {
		t.Fatal("negative batch size must be rejected")
	}
	run := func(batched bool) Stats {
		opts := []Option{
			WithProfile(p), WithSeed(42), WithReplicas(3),
			WithRouter(HashRouter), WithSyncEvery(2 * time.Second),
		}
		if batched {
			opts = append(opts, WithBatchSize(16))
		}
		srv, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 16, false: 0}[batched]; srv.(*Cluster).DefaultBatchSize() != want {
			t.Fatalf("DefaultBatchSize = %d, want %d", srv.(*Cluster).DefaultBatchSize(), want)
		}
		rep, err := Drive(srv, NewWorkload(p, 42), DriveConfig{Requests: 2000, Concurrency: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if batched && rep.BatchSize != 16 {
			t.Fatalf("Drive did not pick up WithBatchSize: effective %d", rep.BatchSize)
		}
		if !batched && rep.BatchSize != 1 {
			t.Fatalf("unbatched drive reports batch size %d", rep.BatchSize)
		}
		return rep.Final
	}
	a, b := run(false), run(true)
	if a.Served != b.Served || a.VirtualTime != b.VirtualTime ||
		a.Violations != b.Violations || a.TrainSteps != b.TrainSteps || a.Syncs != b.Syncs {
		t.Fatalf("batched vs unbatched virtual stats differ:\n %+v\n %+v", a, b)
	}
}
