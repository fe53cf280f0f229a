// Package plan is the engine's cost model, kept as a gauge: per-stage cost
// coefficients calibrated online from observed stage timings, scored
// against the estimator's own per-query predictions. No estimate reaches
// an answer, a table cap or a dispatch order.
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
// The postings feature is a direct read from the CSR term blobs
// (index.Searcher.TermStats); the table counts are the ones the query
// actually materialized. Linear-in-tables is deliberately crude for the
// quadratic edge build; the decaying average tracks the workload's
// realized mix, and the error gauge says how crude it is.
//
// # Calibration contract
//
// Estimator.Observe folds one answered query's per-stage wall times into
// the coefficients via an exponentially decaying average (default memory
// ≈ 1/alpha ≈ 20 queries), so the model self-corrects as the workload or
// hardware changes. Before the first observation every coefficient is
// zero and Calibrated reports false. Once calibrated, Observe first
// predicts each query's cost from the coefficients it has, then folds the
// decayed relative error |estimated−actual|/actual into ErrorRate, which
// the serving layer exports as the cost error gauge. Snapshot, Restore,
// SaveFile and LoadFile carry the coefficients across restarts in a JSON
// sidecar.
//
// Estimator is safe for concurrent use (one mutex; the critical sections
// are a few dozen arithmetic operations).
//
// DrainEstimate is the admission-queue companion: given the admission
// snapshot (occupied and requested worker slots, capacity) and a decayed
// average slot-hold time, it estimates how long until the requested slots
// are free — the serving layer derives 429 Retry-After from it.
package plan
