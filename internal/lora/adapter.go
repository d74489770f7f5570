// Package lora implements the paper's core contribution: Low-Rank Adaptation
// tables for embedding updates (∆W = A·B, Eq. 3), with the two memory
// mechanisms of §IV-C — variance-aware dynamic rank adaptation and
// usage-based table pruning (Algorithm 1) — plus merge/export primitives for
// the cross-node sync protocol (Algorithm 3).
//
// # Concurrency
//
// An Adapter, and the Set that groups them, is not safe for concurrent use.
// Its core.System owns it and serializes every access with two locks, the
// node mutex mu and the parameter lock paramMu:
//
//   - forwards (Lookup, Accumulate, Has, HasHot, EffectiveRow) hold paramMu
//     for read;
//   - every write holds mu and paramMu for write: the train tick (Train with
//     its rank adaptation, pruning and Resize), a fleet publish (ApplyRows,
//     SetB, ApplyState, Publish) and the FullSync reset;
//   - owner reads (Snapshot, ExportState, ExportFull, SizeBytes for Stats)
//     hold mu; so does Snapshot's support reset, since forwards never read
//     the support set.
//
// Writers therefore mutate adapter state in place. The one lock-free read is
// Set.Published/Epoch: the published Version is an immutable record behind
// an atomic pointer, so freshness probes never wait for the node.
package lora

import (
	"fmt"
	"math"
	"sort"

	"liveupdate/internal/tensor"
)

// Config controls adapter behaviour. Defaults follow the paper: α = 0.8,
// adaptation every 128 iterations, initial capacity 10% of |V|, C_min = |V|/50.
type Config struct {
	Dim           int     // embedding dimension d
	InitialRank   int     // starting k (paper observes 3-6 typical)
	MinRank       int     // lower clamp for adapted rank
	MaxRank       int     // upper clamp (≤ d)
	Alpha         float64 // variance threshold α for Eq. 2
	AdaptInterval int     // iterations between rank/prune passes (paper: 128)
	PruneThresh   int     // τ_prune: min updates per window to stay active
	CMin          int     // minimum LoRA table capacity
	CMax          int     // maximum LoRA table capacity (≤ |V|)
	GradWindow    int     // gradient snapshots retained for PCA
	Seed          uint64  // RNG seed for A-row initialization

	// DisableRankAdapt freezes the rank at InitialRank (the paper's
	// fixed-rank LiveUpdate-α ablation variants); pruning still runs.
	DisableRankAdapt bool
}

// DefaultConfig returns paper-default parameters for a table of |V| rows and
// dimension d.
func DefaultConfig(rows, dim int) Config {
	cmin := rows / 50
	if cmin < 1 {
		cmin = 1
	}
	return Config{
		Dim:           dim,
		InitialRank:   4,
		MinRank:       1,
		MaxRank:       dim,
		Alpha:         0.8,
		AdaptInterval: 128,
		PruneThresh:   1,
		CMin:          cmin,
		CMax:          rows,
		GradWindow:    256,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("lora: Dim must be positive")
	case c.InitialRank <= 0 || c.InitialRank > c.Dim:
		return fmt.Errorf("lora: InitialRank %d out of (0,%d]", c.InitialRank, c.Dim)
	case c.MinRank <= 0 || c.MinRank > c.MaxRank:
		return fmt.Errorf("lora: rank bounds [%d,%d] invalid", c.MinRank, c.MaxRank)
	case c.MaxRank > c.Dim:
		return fmt.Errorf("lora: MaxRank %d exceeds Dim %d", c.MaxRank, c.Dim)
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("lora: Alpha must be in (0,1]")
	case c.AdaptInterval <= 0:
		return fmt.Errorf("lora: AdaptInterval must be positive")
	case c.CMin <= 0 || c.CMin > c.CMax:
		return fmt.Errorf("lora: capacity bounds [%d,%d] invalid", c.CMin, c.CMax)
	case c.GradWindow <= 0:
		return fmt.Errorf("lora: GradWindow must be positive")
	}
	return nil
}

// Adapter is the LoRA table for one embedding table: sparse rows A[i] ∈ R^k
// for active indices plus a shared dense factor B ∈ R^{k×d}. See the package
// comment for the lock rule its owner follows.
type Adapter struct {
	cfg  Config
	rank int
	b    *tensor.Matrix      // rank×dim
	rows map[int32][]float64 // A rows for active ids

	// Training statistics and adaptation windows (never read by forwards).
	freq map[int32]int      // per-id update count in the current window
	supp map[int32]struct{} // ids updated since last ResetSupport (Alg. 3)

	iter      int
	gradBuf   *tensor.Matrix // ring of recent pooled gradients (GradWindow×dim)
	gradCount int            // rows filled (≤ GradWindow)
	gradNext  int

	rankObsSum   int // Σ r_t within the adaptation interval
	rankObsCount int

	adaptations int // completed rank/prune passes
	pruned      int // total rows evicted

	// daScratch and coefScratch are Train's per-rank scratches (the hoisted
	// A-gradient step and the summed pre-update A coefficients), reused
	// across calls so a training tick allocates nothing per sample
	// (owner-only, like Train itself); they are regrown when the rank
	// changes.
	daScratch   []float64
	coefScratch []float64

	rng *tensor.RNG // A-row initialization
}

// NewAdapter builds an adapter using the standard LoRA initialization:
// B starts at zero and A rows are drawn randomly on allocation, so ∆W = AB
// is exactly zero at first (serving matches the base table) while gradients
// can still flow into B.
func NewAdapter(cfg Config) (*Adapter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Adapter{
		cfg:     cfg,
		rank:    cfg.InitialRank,
		b:       tensor.NewMatrix(cfg.InitialRank, cfg.Dim),
		rows:    make(map[int32][]float64),
		freq:    make(map[int32]int),
		supp:    make(map[int32]struct{}),
		gradBuf: tensor.NewMatrix(cfg.GradWindow, cfg.Dim),
		rng:     tensor.NewRNG(cfg.Seed ^ 0x10ad0ada),
	}, nil
}

// MustNewAdapter panics on config errors; for tests and examples.
func MustNewAdapter(cfg Config) *Adapter {
	a, err := NewAdapter(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Rank returns the current LoRA rank k.
func (a *Adapter) Rank() int { return a.rank }

// ActiveCount returns the number of ids holding a LoRA row.
func (a *Adapter) ActiveCount() int { return len(a.rows) }

// Has reports whether id has a LoRA row — the serving path's Hot Index
// Filter check (paper Fig 7 step 2).
func (a *Adapter) Has(id int32) bool {
	_, ok := a.rows[id]
	return ok
}

// Adaptations returns how many rank/prune passes have run.
func (a *Adapter) Adaptations() int { return a.adaptations }

// PrunedTotal returns the cumulative number of evicted rows.
func (a *Adapter) PrunedTotal() int { return a.pruned }

// Delta writes W_lora(id) - W_base(id) = A[id]·B into dst (len Dim). Ids
// without a LoRA row contribute zero.
func (a *Adapter) Delta(id int32, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	row, ok := a.rows[id]
	if !ok {
		return
	}
	for k, av := range row {
		if av == 0 {
			continue
		}
		tensor.Axpy(av, a.b.Row(k), dst)
	}
}

// Accumulate adds the id's LoRA delta scaled by alpha into dst.
func (a *Adapter) Accumulate(id int32, alpha float64, dst []float64) {
	row, ok := a.rows[id]
	if !ok {
		return
	}
	for k, av := range row {
		if av == 0 {
			continue
		}
		tensor.Axpy(alpha*av, a.b.Row(k), dst)
	}
}

// Train consumes the gradient w.r.t. the pooled embedding of ids (the output
// of dlrm.Model.Backward) and performs one SGD step at rate lr on A and B,
// with the base weights frozen (paper §IV-A, step 1 of the update path).
// Ids without a row are allocated one (zero-initialized) if capacity allows.
// Train is a write (see the package comment).
func (a *Adapter) Train(ids []int32, grad []float64, lr float64) {
	if len(ids) == 0 {
		return
	}
	if len(grad) != a.cfg.Dim {
		panic(fmt.Sprintf("lora: grad len %d != dim %d", len(grad), a.cfg.Dim))
	}
	a.recordGrad(grad)
	invPool := 1 / float64(len(ids))

	// The A-row gradient dA[i] = (grad/pool)·Bᵀ does not depend on i (B only
	// moves after the loop), so the k dot products are hoisted out of the
	// per-id walk: O(rank·dim) once instead of per id. coef[k] accumulates the
	// pre-update A coefficients Σ_i A[i][k], which folds the dense dB matrix
	// into one Axpy per rank — the B update touches only the mini-batch's
	// contribution, SPMM-style, with no rank×dim accumulator to zero.
	if len(a.daScratch) < a.rank {
		a.daScratch = make([]float64, a.rank)
		a.coefScratch = make([]float64, a.rank)
	}
	da := a.daScratch[:a.rank]
	coef := a.coefScratch[:a.rank]
	for k := 0; k < a.rank; k++ {
		da[k] = lr * invPool * tensor.Dot(grad, a.b.Row(k))
		coef[k] = 0
	}
	for _, id := range ids {
		row := a.ensureRow(id)
		if row == nil {
			continue // table at capacity; skip cold id
		}
		a.freq[id]++
		a.supp[id] = struct{}{}
		for k := 0; k < a.rank; k++ {
			coef[k] += row[k] // pre-update value, as dB sees it
			row[k] -= da[k]
		}
	}
	for k := 0; k < a.rank; k++ {
		// dB[k] = coef[k] · grad/pool; apply the SGD step directly.
		if coef[k] != 0 {
			tensor.Axpy(-lr*coef[k]*invPool, grad, a.b.Row(k))
		}
	}

	a.iter++
	if a.iter%a.cfg.AdaptInterval == 0 {
		a.adapt()
	}
}

// ensureRow returns the A row for id, allocating a randomly initialized row
// when capacity allows; it returns nil when the table is full and id is not
// resident. Random A with zero B keeps ∆W = 0 until training moves B.
func (a *Adapter) ensureRow(id int32) []float64 {
	if row, ok := a.rows[id]; ok {
		return row
	}
	if len(a.rows) >= a.cfg.CMax {
		return nil
	}
	row := make([]float64, a.rank)
	scale := 1 / math.Sqrt(float64(a.rank))
	for k := range row {
		row[k] = a.rng.NormFloat64() * scale
	}
	a.rows[id] = row
	return row
}

// recordGrad appends a gradient snapshot to the PCA ring buffer and updates
// the per-interval observed-rank statistics (r_t of §IV-C).
func (a *Adapter) recordGrad(grad []float64) {
	copy(a.gradBuf.Row(a.gradNext), grad)
	a.gradNext = (a.gradNext + 1) % a.cfg.GradWindow
	if a.gradCount < a.cfg.GradWindow {
		a.gradCount++
	}
}

// adapt runs Algorithm 1: PCA-driven rank adaptation followed by usage-based
// pruning with capacity clamping.
func (a *Adapter) adapt() {
	a.adaptations++

	// --- Rank adaptation (Alg. 1 line 3-4) ---
	if !a.cfg.DisableRankAdapt && a.gradCount >= 2 {
		snapshot := tensor.NewMatrix(a.gradCount, a.cfg.Dim)
		copy(snapshot.Data, a.gradBuf.Data[:a.gradCount*a.cfg.Dim])
		pca := tensor.ComputePCA(snapshot)
		rt := pca.MinRankForVariance(a.cfg.Alpha)
		a.rankObsSum += rt
		a.rankObsCount++
		// New rank = ceil of the interval-averaged observation, clamped.
		r := (a.rankObsSum + a.rankObsCount - 1) / a.rankObsCount
		if r < a.cfg.MinRank {
			r = a.cfg.MinRank
		}
		if r > a.cfg.MaxRank {
			r = a.cfg.MaxRank
		}
		a.Resize(r)
	}

	// --- Usage-based pruning (Alg. 1 line 5-10) ---
	// Rows updated fewer than τ_prune times this window are evicted, and if
	// more than CMax stay active the least frequently updated go too
	// (Alg. 1 clamps the kept count to [CMin, CMax]; raising it to CMin
	// evicts nothing). Evictions delete in place: the map keeps its
	// capacity, so the next window's new rows do not re-grow it.
	active := make([]int32, 0, len(a.rows))
	for id := range a.rows {
		if a.freq[id] >= a.cfg.PruneThresh {
			active = append(active, id)
		} else {
			delete(a.rows, id)
			a.pruned++
		}
	}
	if len(active) > a.cfg.CMax {
		// Keep the most frequently updated ids.
		sort.Slice(active, func(i, j int) bool {
			if a.freq[active[i]] != a.freq[active[j]] {
				return a.freq[active[i]] > a.freq[active[j]]
			}
			return active[i] < active[j]
		})
		for _, id := range active[a.cfg.CMax:] {
			delete(a.rows, id)
			a.pruned++
		}
	}
	// New frequency window.
	a.freq = make(map[int32]int)
}

// Resize changes the LoRA rank to r. Shrinking re-projects the current ∆W
// onto the best rank-r subspace via truncated SVD (Eckart–Young), so learned
// information is preserved as well as any rank-r factorization can; growing
// zero-pads, leaving ∆W bit-identical.
func (a *Adapter) Resize(r int) {
	if r < a.cfg.MinRank {
		r = a.cfg.MinRank
	}
	if r > a.cfg.MaxRank {
		r = a.cfg.MaxRank
	}
	if r == a.rank {
		return
	}
	if r > a.rank {
		// Grow: zero B rows keep ∆W identical; the new A coordinates are
		// randomly initialized so gradients flow into the added capacity.
		// Rows draw from the RNG in id order (not map order), so a seeded
		// adapter grows reproducibly.
		newB := tensor.NewMatrix(r, a.cfg.Dim)
		copy(newB.Data, a.b.Data)
		scale := 1 / math.Sqrt(float64(r))
		for _, id := range sortedIDs(a.rows) {
			row := a.rows[id]
			nr := make([]float64, r)
			copy(nr, row)
			for k := len(row); k < r; k++ {
				nr[k] = a.rng.NormFloat64() * scale
			}
			a.rows[id] = nr
		}
		a.rank, a.b = r, newB
		return
	}
	// Shrink: factor the realized ∆W of the active rows.
	if len(a.rows) == 0 {
		a.rank, a.b = r, tensor.NewMatrix(r, a.cfg.Dim)
		return
	}
	ids := sortedIDs(a.rows)
	delta := tensor.NewMatrix(len(ids), a.cfg.Dim)
	for i, id := range ids {
		a.Delta(id, delta.Row(i))
	}
	left, right := tensor.TruncatedSVD(delta, r)
	for i, id := range ids {
		a.rows[id] = append([]float64(nil), left.Row(i)...)
	}
	a.rank, a.b = r, right
}

// sortedIDs returns the ids of rows in ascending order.
func sortedIDs(rows map[int32][]float64) []int32 {
	ids := make([]int32, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SizeBytes returns the adapter's parameter footprint: active A rows plus B.
func (a *Adapter) SizeBytes() int64 {
	return int64(len(a.rows))*int64(a.rank)*8 + int64(a.rank)*int64(a.cfg.Dim)*8
}

// RowUpdate carries one modified A row for synchronization (Algorithm 3).
type RowUpdate struct {
	ID  int32
	Row []float64 // length = sender's rank
}

// ExportSupport snapshots the A rows modified since the last ResetSupport —
// supp(∆θ) in Algorithm 3 — without clearing the support set. The returned
// rows are deep copies, so the export stays valid (and immutable) while the
// adapter keeps training.
func (a *Adapter) ExportSupport() []RowUpdate {
	out := make([]RowUpdate, 0, len(a.supp))
	for id := range a.supp {
		row, ok := a.rows[id]
		if !ok {
			continue // pruned since modification
		}
		out = append(out, RowUpdate{ID: id, Row: append([]float64(nil), row...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExportAllRows snapshots every active A row — not just the modified
// support — as deep copies in id order: the full-state payload a joining
// replica restores during fleet catch-up. The support set is untouched.
func (a *Adapter) ExportAllRows() []RowUpdate {
	out := make([]RowUpdate, 0, len(a.rows))
	for id, row := range a.rows {
		out = append(out, RowUpdate{ID: id, Row: append([]float64(nil), row...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SupportSize returns |S_r|, the number of ids modified since ResetSupport.
func (a *Adapter) SupportSize() int { return len(a.supp) }

// ResetSupport clears the modification tracker (end of a sync cycle).
func (a *Adapter) ResetSupport() { a.supp = make(map[int32]struct{}) }

// ApplyRows installs remote A rows (receiving side of a sync) in place. Rows
// whose length differs from the current rank are adapted: truncated or
// zero-padded. Applied rows do not enter the local support set (they are
// foreign state).
func (a *Adapter) ApplyRows(updates []RowUpdate) {
	for _, u := range updates {
		row, ok := a.rows[u.ID]
		if !ok {
			row = make([]float64, a.rank)
			a.rows[u.ID] = row
		}
		n := copy(row, u.Row) // copies min(len) — truncation/padding implicit
		clear(row[n:])
	}
}

// SetB overwrites the shared factor B from a synced copy. The incoming
// matrix is rank'×d; rank mismatches are adapted by truncate/zero-pad.
func (a *Adapter) SetB(b *tensor.Matrix) {
	if b.Cols != a.cfg.Dim {
		panic(fmt.Sprintf("lora: SetB dim %d != %d", b.Cols, a.cfg.Dim))
	}
	n := copy(a.b.Data, b.Data)
	clear(a.b.Data[n:])
}

// applyState installs one merged TableState (rows plus shared B) — the
// per-adapter publish step of the versioned sync pipeline. A nil B keeps the
// current factor.
func (a *Adapter) applyState(ts TableState) {
	if ts.B != nil {
		a.SetB(ts.B)
	}
	a.ApplyRows(ts.Rows)
}

// B returns a copy of the shared factor for synchronization.
func (a *Adapter) B() *tensor.Matrix { return a.b.Clone() }

// Reset clears all LoRA state (after a full-parameter sync folds fresh base
// weights in, the adapter starts from ∆W = 0 again — paper Fig 8's hourly
// full-update starting points).
func (a *Adapter) Reset() {
	a.b = tensor.NewMatrix(a.rank, a.cfg.Dim)
	a.rows = make(map[int32][]float64)
	a.freq = make(map[int32]int)
	a.supp = make(map[int32]struct{})
	a.gradCount = 0
	a.gradNext = 0
	a.rankObsSum = 0
	a.rankObsCount = 0
}
