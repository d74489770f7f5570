package lora

import (
	"fmt"
	"sync/atomic"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
)

// Set pairs one Adapter per embedding table with a frozen base emt.Group and
// implements dlrm.EmbeddingSource: lookups serve W_base + A·B, training
// gradients flow only into the adapters (paper Fig 7).
//
// For synchronization the Set carries epoch-versioned state: Snapshot
// exports the modified rows for an in-flight merge, Publish installs a merged
// state in every adapter and stamps the epoch. The package comment gives the
// lock rule for each call.
type Set struct {
	Base     *emt.Group
	Adapters []*Adapter

	// published is the last Version installed by Publish; nil before the
	// first sync. Readers load it lock-free.
	published atomic.Pointer[Version]
}

// Version is an epoch-stamped snapshot of merged adapter state, as installed
// by Publish. It is immutable after publication: the sync pipeline hands the
// same Version to every replica, and adapters copy rows on apply rather than
// aliasing them.
type Version struct {
	// Epoch is the publisher's monotone sync generation — the SyncGroup's
	// cumulative sync counter, which advances on every completed merge,
	// manual SyncNow included. It orders publications; it is NOT the
	// Cluster's SyncEvery epoch index.
	Epoch int64
	// Tables is the merged state, one entry per embedding table.
	Tables []TableState
}

// NewSet builds adapters (one per base table) from cfg. The cfg.Dim field is
// overridden per table from the base group.
func NewSet(base *emt.Group, cfg Config) (*Set, error) {
	s := &Set{Base: base}
	for _, t := range base.Tables {
		c := cfg
		c.Dim = t.Dim
		if c.MaxRank > t.Dim {
			c.MaxRank = t.Dim
		}
		if c.CMax > t.Rows() {
			c.CMax = t.Rows()
		}
		if c.CMin > c.CMax {
			c.CMin = c.CMax
		}
		a, err := NewAdapter(c)
		if err != nil {
			return nil, fmt.Errorf("lora: table %s: %w", t.Name, err)
		}
		s.Adapters = append(s.Adapters, a)
	}
	return s, nil
}

// MustNewSet panics on configuration errors.
func MustNewSet(base *emt.Group, cfg Config) *Set {
	s, err := NewSet(base, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NumTables implements dlrm.EmbeddingSource.
func (s *Set) NumTables() int { return len(s.Base.Tables) }

// Dim implements dlrm.EmbeddingSource.
func (s *Set) Dim() int { return s.Base.Tables[0].Dim }

// Lookup implements dlrm.EmbeddingSource: mean-pools W_base[i] + A[i]·B over
// ids. Cold ids (no LoRA row) serve the base embedding unchanged.
func (s *Set) Lookup(table int, ids []int32, dst []float64) {
	t := s.Base.Tables[table]
	t.Lookup(ids, dst)
	if len(ids) == 0 {
		return
	}
	a := s.Adapters[table]
	inv := 1 / float64(len(ids))
	for _, id := range ids {
		a.Accumulate(id, inv, dst)
	}
}

// ApplyGrad implements dlrm.EmbeddingSource: the pooled-embedding gradient
// trains the LoRA factors; base weights are untouched (frozen W).
func (s *Set) ApplyGrad(table int, ids []int32, grad []float64, lr float64) {
	s.Adapters[table].Train(ids, grad, lr)
}

// SizeBytes sums adapter footprints across tables.
func (s *Set) SizeBytes() int64 {
	var total int64
	for _, a := range s.Adapters {
		total += a.SizeBytes()
	}
	return total
}

// OverheadRatio returns adapter bytes / base EMT bytes — the "<2% of EMTs"
// memory-overhead metric of the paper's abstract and Fig 17.
func (s *Set) OverheadRatio() float64 {
	base := s.Base.SizeBytes()
	if base == 0 {
		return 0
	}
	return float64(s.SizeBytes()) / float64(base)
}

// MergeIntoBase folds every adapter's ∆W into the base tables and resets the
// adapters (used when promoting accumulated LoRA state, e.g. just before an
// hourly full sync replaces the base).
func (s *Set) MergeIntoBase() {
	delta := make([]float64, s.Dim())
	for ti, a := range s.Adapters {
		t := s.Base.Tables[ti]
		for id := range a.rows {
			a.Delta(id, delta)
			t.ApplyRowDelta(id, delta)
		}
		a.Reset()
	}
}

// ResetAdapters clears all adapters without touching the base (after the
// base was replaced by a full-parameter sync).
func (s *Set) ResetAdapters() {
	for _, a := range s.Adapters {
		a.Reset()
	}
}

// HasHot reports whether any id in ids has a LoRA row in the given table —
// the serving path's Hot Index Filter (paper Fig 7, inference step 2).
func (s *Set) HasHot(table int, ids []int32) bool {
	a := s.Adapters[table]
	for _, id := range ids {
		if a.Has(id) {
			return true
		}
	}
	return false
}

// EffectiveRow writes W_base[id] + A[id]·B for one id into dst.
func (s *Set) EffectiveRow(table int, id int32, dst []float64) {
	copy(dst, s.Base.Tables[table].PeekRow(id))
	s.Adapters[table].Accumulate(id, 1, dst)
}

// TableState bundles one adapter's sync payload: modified A rows plus the
// shared B factor.
type TableState struct {
	Rows []RowUpdate
	B    *tensor.Matrix
	Rank int
}

// ExportState snapshots all adapters' supports for synchronization.
func (s *Set) ExportState() []TableState {
	out := make([]TableState, len(s.Adapters))
	for i, a := range s.Adapters {
		out[i] = TableState{Rows: a.ExportSupport(), B: a.B(), Rank: a.Rank()}
	}
	return out
}

// ExportFull snapshots every adapter's complete state — all active rows
// (not just the modified supports) plus the shared factors — as deep
// copies. This is the catch-up payload a replica joining the fleet installs
// with Publish: unlike Snapshot it carries rows from every past sync epoch,
// so the joiner matches a veteran's accumulated state, and it does NOT
// clear the supports (the exporter keeps participating in its next sync
// normally). An owner read, like Snapshot.
func (s *Set) ExportFull() []TableState {
	out := make([]TableState, len(s.Adapters))
	for i, a := range s.Adapters {
		out[i] = TableState{Rows: a.ExportAllRows(), B: a.B(), Rank: a.Rank()}
	}
	return out
}

// ApplyState installs a synced snapshot (winner of the priority merge): each
// adapter takes its new rows and B factor in place.
func (s *Set) ApplyState(states []TableState) {
	if len(states) != len(s.Adapters) {
		panic(fmt.Sprintf("lora: ApplyState %d states for %d adapters", len(states), len(s.Adapters)))
	}
	for i, st := range states {
		s.Adapters[i].applyState(st)
	}
}

// Snapshot exports every adapter's modified-row support plus shared factors
// and clears the supports — the deep-copied payload for one epoch of the
// asynchronous sync pipeline. Clearing at snapshot time (rather than after
// the merge lands) means training that arrives while the merge is in flight
// feeds the NEXT epoch instead of being silently dropped. An owner read.
func (s *Set) Snapshot() []TableState {
	st := s.ExportState()
	s.ResetSupports()
	return st
}

// Publish installs a merged state and stamps it with the publisher's epoch:
// the state is applied to every adapter, then recorded as the Set's
// published Version, which freshness probes read lock-free.
func (s *Set) Publish(states []TableState, epoch int64) {
	s.ApplyState(states)
	s.published.Store(&Version{Epoch: epoch, Tables: states})
}

// Published returns the last Version installed by Publish (nil before the
// first sync). Lock-free.
func (s *Set) Published() *Version { return s.published.Load() }

// Epoch returns the epoch of the last published state, or -1 before the
// first publication. Lock-free.
func (s *Set) Epoch() int64 {
	if v := s.published.Load(); v != nil {
		return v.Epoch
	}
	return -1
}

// ResetSupports clears all adapters' support sets (end of sync cycle).
func (s *Set) ResetSupports() {
	for _, a := range s.Adapters {
		a.ResetSupport()
	}
}

// PayloadBytes returns the wire size of an exported state: 4 bytes per row
// id plus 8 bytes per float for A rows and B.
func PayloadBytes(states []TableState) int64 {
	var total int64
	for _, st := range states {
		for _, r := range st.Rows {
			total += 4 + int64(len(r.Row))*8
		}
		if st.B != nil {
			total += int64(len(st.B.Data)) * 8
		}
	}
	return total
}
