// Package plan is the cost model behind the engine's adaptive query
// planner: per-query cost estimates computed from index statistics, with
// per-stage cost coefficients calibrated online from observed stage
// timings.
//
// # Cost model
//
// A query's cost is modeled as a sum of per-stage linear terms, each the
// product of a work-size feature (known before the stage runs) and a
// calibrated coefficient (ns per unit of work):
//
//	probe1      ≈ c_probe1 · postings      (posting entries under the query terms)
//	read1       ≈ c_read   · tables1       (first-probe candidate tables)
//	probe2+read2≈ c_probe2 · tables1       (the re-probe's cost tracks the
//	                                        stage-1 model built over tables1)
//	colmap      ≈ c_build  · tables        (final candidate tables)
//	infer       ≈ c_infer[alg] · tables    (one coefficient per algorithm)
//	consolidate ≈ c_cons   · tables
//
// The features come from statistics the index already holds: posting-list
// lengths and document frequencies are direct reads from the CSR term
// blobs (index.Searcher.TermStats), and the candidate-table count is
// bounded by min(ProbeK, Σ df). Linear-in-tables is deliberately
// crude for the quadratic edge build, but scheduling and degradation only
// need costs to be *ordered* correctly, and the decaying average tracks
// the workload's realized mix.
//
// # Calibration contract
//
// Estimator.Observe folds one answered query's per-stage wall times into
// the coefficients via an exponentially decaying average (default memory
// ≈ 1/alpha ≈ 20 queries), so the model self-corrects as the workload or
// hardware changes. Before the first observation every coefficient is
// zero: estimates are zero, every query ties, and consumers degrade to
// their non-adaptive behavior (FIFO dispatch, no degradation) — a cold
// estimator is safe by construction. Observe also tracks the decayed
// relative error |estimated−actual|/actual of its own predictions, which
// the serving layer exports as the estimated-vs-actual cost error gauge.
//
// Estimator is safe for concurrent Observe/Estimate calls (one mutex; the
// critical sections are a few dozen arithmetic operations).
//
// DrainEstimate is the admission-queue companion: given the admission
// snapshot (occupied and requested worker slots, capacity) and a decayed
// average slot-hold time, it estimates how long until the requested slots
// are free — the serving layer derives 429 Retry-After from it.
package plan
