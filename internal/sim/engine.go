package sim

import (
	"pnps/internal/pv"
)

// Engine abstracts how a group of independent runs is executed. The
// scalar engine runs them one after another; the batched engine advances
// up to W of them in lockstep over a structure-of-arrays state layout.
// Both produce bit-identical results: the batched path drives the exact
// per-run step/settle sequence the scalar path does, merely interleaving
// the integration stages of independent lanes.
type Engine interface {
	// Name identifies the engine in benchmark records ("scalar",
	// "batched").
	Name() string
	// Width is the maximum number of runs advanced in lockstep (1 for
	// scalar).
	Width() int
	// RunGroup executes every config and returns, per config, its Result
	// or its error (indices correspond; exactly one of results[i] and
	// errs[i] is non-nil).
	RunGroup(cfgs []Config) (results []*Result, errs []error)
}

// ScalarEngine executes runs sequentially via Run — the reference
// implementation everything else is pinned against.
type ScalarEngine struct{}

// Name implements Engine.
func (ScalarEngine) Name() string { return "scalar" }

// Width implements Engine.
func (ScalarEngine) Width() int { return 1 }

// RunGroup implements Engine.
func (ScalarEngine) RunGroup(cfgs []Config) ([]*Result, []error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for i := range cfgs {
		results[i], errs[i] = Run(cfgs[i])
	}
	return results, errs
}

// DefaultBatchWidth is the lane count a zero-valued BatchEngine uses.
// Eight lanes keep the shared stage slab well inside L1 for every
// storage model while amortising per-batch setup (the shared Voc memo)
// over enough runs to matter.
const DefaultBatchWidth = 8

// BatchEngine executes runs in lockstep groups of W lanes via RunBatch.
type BatchEngine struct {
	// W is the lane count per lockstep group; <1 selects
	// DefaultBatchWidth.
	W int
}

// Name implements Engine.
func (BatchEngine) Name() string { return "batched" }

// Width implements Engine.
func (b BatchEngine) Width() int {
	if b.W < 1 {
		return DefaultBatchWidth
	}
	return b.W
}

// RunGroup implements Engine.
func (b BatchEngine) RunGroup(cfgs []Config) ([]*Result, []error) {
	w := b.Width()
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for lo := 0; lo < len(cfgs); lo += w {
		hi := lo + w
		if hi > len(cfgs) {
			hi = len(cfgs)
		}
		rs, es := RunBatch(cfgs[lo:hi])
		copy(results[lo:hi], rs)
		copy(errs[lo:hi], es)
	}
	return results, errs
}

// EngineFor returns the engine named by name: "scalar" (or empty) for
// the sequential reference engine, "batched" for lockstep batching with
// the given width (<1 selects DefaultBatchWidth). Unknown names return
// false.
func EngineFor(name string, width int) (Engine, bool) {
	switch name {
	case "", "scalar":
		return ScalarEngine{}, true
	case "batched":
		return BatchEngine{W: width}, true
	}
	return nil, false
}

// RunBatch executes len(cfgs) independent runs in lockstep: one engine
// per lane, their integration segments interleaved stage-by-stage
// through a shared structure-of-arrays ode.BatchIntegrator. Per-lane
// control flow is byte-for-byte the scalar step/settle sequence, so
// every lane's Result is bit-identical to Run(cfgs[i]) regardless of how
// the other lanes behave. Lanes over value-equal arrays share a Voc
// memo. Lanes whose steps diverge — event hits, rejects, service
// delays — simply settle on their own schedule through the scalar settle
// path and rejoin the lockstep rounds with their next segment.
//
// Results and errors correspond by index, exactly one non-nil per lane.
func RunBatch(cfgs []Config) ([]*Result, []error) {
	n := len(cfgs)
	results := make([]*Result, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}

	engines := make([]*engine, n)
	dim := 0
	for i := range cfgs {
		cfg := cfgs[i]
		if err := validate(&cfg); err != nil {
			errs[i] = err
			continue
		}
		e, err := newEngine(cfg)
		if err != nil {
			errs[i] = err
			continue
		}
		engines[i] = e
		if d := e.storage.Dim(); d > dim {
			dim = d
		}
	}
	if dim == 0 {
		return results, errs // every lane failed validation
	}

	// Share the Voc memo among lanes over value-equal arrays. Voc is a
	// pure cold-start function of (array, irradiance), so sharing cannot
	// perturb per-lane results; the warm-history-dependent MPP memo
	// stays per-lane.
	memos := make(map[pv.Array]*pv.VocMemo, 1)
	for _, e := range engines {
		if e == nil || e.fast == nil {
			continue
		}
		arr := *e.pvSrc.Array
		m := memos[arr]
		if m == nil {
			m = pv.NewVocMemo(e.pvSrc.Array)
			memos[arr] = m
		}
		e.fast.ShareVoc(m)
	}

	// Re-point each lane's state vector into one contiguous slab so the
	// batch's live state is adjacent in memory.
	ySlab := make([]float64, n*dim)
	for i, e := range engines {
		if e == nil {
			continue
		}
		d := e.storage.Dim()
		y := ySlab[i*dim : i*dim+d : i*dim+d]
		copy(y, e.y)
		e.y = y
	}

	// Every lane's in-round stage evaluations flow through one batched
	// derivative call per stage: PV lanes advance their diode Newton
	// solves in lockstep via pv.LaneSolver, non-PV lanes fall back to
	// their scalar RHS inside the same call. The scalar RHS still seeds
	// each segment's FSAL stage — both paths advance the same per-lane
	// solver state identically, so mixing them preserves bit-identity.
	// The integrator/evaluator pair is recycled across packs of the same
	// shape, so steady-state pack setup allocates nothing for it.
	sc := acquireBatch(n, dim)
	bi := sc.bi
	sc.br.bind(engines)
	done := make([]bool, n)

	// startNext drives lane i's discrete-event machine until its next
	// integration segment is armed and started, or the lane finishes.
	startNext := func(i int) {
		e := engines[i]
		if !e.pendArmed {
			more, err := e.step()
			if err != nil {
				errs[i] = err
				done[i] = true
				return
			}
			if !more {
				results[i] = e.finish()
				done[i] = true
				return
			}
		}
		if err := bi.StartBatched(i, e.rhsFn, e.pendT0, e.pendT1, e.stateBuf(), e.pendOptions()); err != nil {
			errs[i] = e.wrapSegErr(e.pendKind, e.pendT0, err)
			done[i] = true
		}
	}

	for i, e := range engines {
		if e == nil {
			done[i] = true
			continue
		}
		startNext(i)
	}

	// Lockstep rounds: every running lane performs one step attempt per
	// round; lanes whose segment completed settle scalar-side and re-arm.
	for bi.Active() > 0 {
		bi.Round()
		for i, e := range engines {
			if e == nil || done[i] || bi.Running(i) {
				continue
			}
			res, err := bi.Take(i)
			if err != nil {
				errs[i] = e.wrapSegErr(e.pendKind, e.pendT0, err)
				done[i] = true
				continue
			}
			if err := e.settle(res); err != nil {
				errs[i] = err
				done[i] = true
				continue
			}
			startNext(i)
		}
	}
	releaseBatch(sc)
	return results, errs
}
