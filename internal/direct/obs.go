package direct

import "dtr/internal/obs"

// Metric handles for the canonical solver's two caches. They are lazy:
// until obs.SetDefault installs a registry every call is a no-op costing
// one atomic load. Evaluations are counted per finish-pair construction,
// the unit Figs. 1–3 sweep over.
// The *_dup_computes counters are the cache-contention signal of
// concurrent sweeps: each one is a discretization computed by a
// goroutine that lost the publish race and threw its copy away. The
// prefix spectra are built with the prefix tables, so every FFT-cache
// lookup is a hit and the FFT miss and dup-compute counters stay at
// zero; they remain registered because dashboards and the benchmark
// read them.
var (
	fftHits        = obs.NewCounter("dtr_direct_fft_cache_hits_total")
	fftMisses      = obs.NewCounter("dtr_direct_fft_cache_misses_total")
	fftDupComputes = obs.NewCounter("dtr_direct_fft_cache_dup_computes_total")
	zHits          = obs.NewCounter("dtr_direct_transfer_cache_hits_total")
	zMisses        = obs.NewCounter("dtr_direct_transfer_cache_misses_total")
	zDupComputes   = obs.NewCounter("dtr_direct_transfer_cache_dup_computes_total")
	evals          = obs.NewCounter("dtr_direct_evals_total")
)

// Solver-health metrics (see Diagnostics): numerical error budgets
// observed while solving. Residuals and tail masses are probabilities,
// so the exponential buckets span round-off (~1e-16) up to visibly-broken
// (~1e-2 residual, ~10% tail).
var (
	solverFolds        = obs.NewCounter("dtr_solver_folds_total")
	solverMassResidual = obs.NewHistogram("dtr_solver_fold_mass_residual", obs.ExpBuckets(1e-16, 10, 14))
	solverTailMass     = obs.NewHistogram("dtr_solver_tail_mass", obs.ExpBuckets(1e-12, 10, 12))
	probeRuns          = obs.NewCounter("dtr_solver_probe_runs_total")
	probeError         = obs.NewHistogram("dtr_solver_probe_error", obs.ExpBuckets(1e-12, 10, 12))
)
