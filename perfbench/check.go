package main

import (
	"fmt"

	"liveupdate"
)

type check struct {
	name   string
	ok     bool
	detail string
}

// gate is the benchmark's correctness gate. Every check must hold for the
// run to count.
func gate(w workload, timed, untraced, traced *pass) []check {
	var cs []check
	add := func(name string, ok bool, format string, args ...any) {
		cs = append(cs, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	}
	for _, p := range []*pass{timed, untraced, traced} {
		calls, served, errs, bad := p.probe.totals()
		add(p.name+": probabilities in [0,1]", bad == 0, "%d of %d outside", bad, served)
		want := p.asked
		add(p.name+": served == requested", errs == 0 && served == want && int(p.served) == want,
			"probe %d, drive %d, requested %d, errors %d, calls %d", served, p.served, want, errs, calls)
		// Server-side count: the fleet saw every request the driver sent,
		// warm-up included.
		add(p.name+": server served == requested", p.final.Served == uint64(p.drives),
			"server %d, requested %d", p.final.Served, p.drives)
		if w.wire {
			acc, done := wireLedger(p.final)
			add(p.name+": wire accepted == completed", acc == done && acc > 0,
				"accepted %d, completed %d", acc, done)
		}
	}
	if !w.wire {
		a, b := untraced.final, traced.final
		same := a.Served == b.Served && a.Violations == b.Violations && a.P99 == b.P99 &&
			a.TrainSteps == b.TrainSteps && a.Syncs == b.Syncs && sameClocks(a, b)
		add("virtual-time stats untraced == traced", same,
			"served %d/%d violations %d/%d p99 %g/%g ticks %d/%d syncs %d/%d",
			a.Served, b.Served, a.Violations, b.Violations, a.P99, b.P99, a.TrainSteps, b.TrainSteps, a.Syncs, b.Syncs)
	}
	if !w.train {
		n, diff := compareProbs(untraced.probe, traced.probe)
		add("probabilities untraced == traced", n == w.gateN && diff == 0, "%d compared, %d differ", n, diff)
	}
	return cs
}

func sameClocks(a, b liveupdate.Stats) bool {
	if len(a.Replicas) != len(b.Replicas) {
		return false
	}
	for i := range a.Replicas {
		if a.Replicas[i].VirtualTime != b.Replicas[i].VirtualTime {
			return false
		}
	}
	return true
}

func wireLedger(st liveupdate.Stats) (accepted, completed uint64) {
	for _, ep := range st.Wire {
		accepted += ep.Accepted
		completed += ep.Completed
	}
	return accepted, completed
}

// compareProbs compares two passes' served probabilities shard by shard,
// in serve order, and returns how many were compared and how many differ.
func compareProbs(a, b *probe) (n, diff int) {
	if len(a.lanes) != len(b.lanes) {
		return 0, 0
	}
	for i := range a.lanes {
		pa, pb := a.lanes[i].probs, b.lanes[i].probs
		if len(pa) != len(pb) {
			return n, diff + 1
		}
		for j := range pa {
			n++
			if pa[j] != pb[j] {
				diff++
			}
		}
	}
	return n, diff
}
