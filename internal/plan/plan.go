package plan

import (
	"sync"
	"time"
)

// DefaultAlpha is the decay factor of the calibration averages: each new
// observation carries this weight, so the effective memory is ~1/alpha
// recent queries.
const DefaultAlpha = 0.05

// EWMA is a mutex-guarded exponentially weighted moving average. The zero
// value is not ready; use NewEWMA. Value returns 0 before the first
// observation.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	v     float64
	n     uint64
}

// NewEWMA returns an average with the given decay factor (0 < alpha <= 1;
// out-of-range values fall back to DefaultAlpha).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &EWMA{alpha: alpha}
}

// Observe folds x into the average. The first observation seeds the
// average directly (no bias toward zero).
func (e *EWMA) Observe(x float64) {
	e.mu.Lock()
	if e.n == 0 {
		e.v = x
	} else {
		e.v += e.alpha * (x - e.v)
	}
	e.n++
	e.mu.Unlock()
}

// Value returns the current average (0 before the first observation).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v
}

// Count returns the number of observations folded in.
func (e *EWMA) Count() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// coef is one decaying per-unit cost coefficient (ns per unit of work).
// Guarded by the owning Estimator's mutex.
type coef struct {
	v float64
	n uint64
}

func (c *coef) observe(x, alpha float64) {
	if c.n == 0 {
		c.v = x
	} else {
		c.v += alpha * (x - c.v)
	}
	c.n++
}

// Sample is one answered query's observed work sizes and per-stage wall
// times, as fed to Estimator.Observe. Probe2 covers the stage-1 mapping
// that seeds the re-probe (timed whenever the second probe is enabled)
// plus the re-probe itself; Read2 is the second read. Probe2Ran reports
// whether the re-probe fired; a query whose re-probe did not fire is not
// used to calibrate the probe-2 coefficient.
type Sample struct {
	Postings int // posting entries under the probe-1 terms
	// PostingsScanned is how many posting entries the probe actually
	// scored after block-max/term-level skips (0 when the probe surface
	// reports no scan statistics, e.g. the map-based fallback scorer).
	PostingsScanned int64
	Tables1         int // candidate tables after read1
	Tables          int // final candidate tables (after read2)
	Alg             int // inference algorithm actually run
	Probe2Ran       bool

	Probe1, Read1, Probe2, Read2, Build, Infer, Cons time.Duration
}

// Estimator holds the calibrated per-stage cost coefficients. The zero
// value is not ready; use NewEstimator. All methods are safe for
// concurrent use.
type Estimator struct {
	mu     sync.Mutex
	alpha  float64
	probe1 coef // ns per scanned posting entry
	skip   coef // scanned/total posting ratio after probe-layer skips
	read   coef // ns per first-probe table
	probe2 coef // ns per first-probe table (re-probe + read2, when fired)
	build  coef // ns per final table
	infer  []coef
	cons   coef // ns per final table
	errRel coef // decayed |est-actual|/actual of estimateQueryLocked
}

// NewEstimator returns a cold estimator with nAlgs inference-algorithm
// slots and the given decay factor (out-of-range alpha falls back to
// DefaultAlpha).
func NewEstimator(nAlgs int, alpha float64) *Estimator {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	if nAlgs < 1 {
		nAlgs = 1
	}
	return &Estimator{alpha: alpha, infer: make([]coef, nAlgs)}
}

// algIndex clamps an algorithm id into the estimator's slots (unknown
// algorithms share slot 0).
func (e *Estimator) algIndex(alg int) int {
	if alg < 0 || alg >= len(e.infer) {
		return 0
	}
	return alg
}

// Observe calibrates the coefficients from one answered query, and — when
// the estimator was already calibrated for this sample's shape — folds the
// relative error of its own pre-update prediction into the error gauge.
func (e *Estimator) Observe(s Sample) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ai := e.algIndex(s.Alg)

	// Score the prediction the estimator would have made for this query
	// before folding the query in, so the error gauge measures real
	// predictive skill, not hindsight.
	if e.calibratedLocked(ai) {
		est := e.estimateQueryLocked(s.Postings, s.Tables, ai, s.Probe2Ran)
		actual := s.Probe1 + s.Read1 + s.Probe2 + s.Read2 + s.Build + s.Infer + s.Cons
		if actual > 0 && est > 0 {
			rel := float64(est-actual) / float64(actual)
			if rel < 0 {
				rel = -rel
			}
			e.errRel.observe(rel, e.alpha)
		}
	}

	if s.Postings > 0 && s.Probe1 > 0 {
		// Calibrate ns-per-posting against the work actually done: with
		// scan statistics the coefficient is per scanned posting and the
		// skip ratio predicts how much of the nominal work survives the
		// probe-layer skips; without them both collapse to the old
		// per-nominal-posting model (ratio stays unobserved → 1).
		if s.PostingsScanned > 0 {
			e.probe1.observe(float64(s.Probe1)/float64(s.PostingsScanned), e.alpha)
			e.skip.observe(float64(s.PostingsScanned)/float64(s.Postings), e.alpha)
		} else {
			e.probe1.observe(float64(s.Probe1)/float64(s.Postings), e.alpha)
		}
	}
	if s.Tables1 > 0 {
		if s.Read1 > 0 {
			e.read.observe(float64(s.Read1)/float64(s.Tables1), e.alpha)
		}
		if s.Probe2Ran && s.Probe2+s.Read2 > 0 {
			e.probe2.observe(float64(s.Probe2+s.Read2)/float64(s.Tables1), e.alpha)
		}
	}
	if s.Tables > 0 {
		if s.Build > 0 {
			e.build.observe(float64(s.Build)/float64(s.Tables), e.alpha)
		}
		if s.Infer > 0 {
			e.infer[ai].observe(float64(s.Infer)/float64(s.Tables), e.alpha)
		}
		if s.Cons > 0 {
			e.cons.observe(float64(s.Cons)/float64(s.Tables), e.alpha)
		}
	}
}

// estimateQueryLocked predicts the full-pipeline wall time of a query
// with the given work sizes under algorithm slot ai — the prediction
// Observe scores itself with. secondProbe drops the re-probe term when
// false. A cold estimator returns 0. Callers hold e.mu.
func (e *Estimator) estimateQueryLocked(postings, tables, ai int, secondProbe bool) time.Duration {
	work := float64(postings)
	if e.skip.n > 0 {
		work *= e.skip.v // predicted surviving fraction after skips
	}
	ns := e.probe1.v * work
	ns += e.read.v * float64(tables)
	if secondProbe {
		ns += e.probe2.v * float64(tables)
	}
	ns += (e.build.v + e.infer[ai].v + e.cons.v) * float64(tables)
	return time.Duration(ns)
}

// Calibrated reports whether the estimator has observed at least one
// query under the given algorithm — i.e. whether estimates for it are
// meaningful rather than cold zeros.
func (e *Estimator) Calibrated(alg int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calibratedLocked(e.algIndex(alg))
}

func (e *Estimator) calibratedLocked(ai int) bool {
	return e.probe1.n > 0 && e.build.n > 0 && e.infer[ai].n > 0 && e.cons.n > 0
}

// ErrorRate returns the decayed mean relative error of the estimator's
// own predictions (|estimated−actual|/actual; 0 until the estimator has
// scored itself at least once).
func (e *Estimator) ErrorRate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.errRel.v
}

// DrainEstimate predicts how long until `need` worker slots free up, given
// the admission snapshot (occupied = in-flight + queued slots, capacity
// slots total) and the decayed average slot-hold time of recent requests.
// The queue drains in "waves" of at most capacity slots, each lasting
// about one hold time. Returns 0 when the inputs give no signal (cold
// hold average or nonsensical capacity) — callers fall back to their
// constant backoff.
func DrainEstimate(occupied, need, capacity int, hold time.Duration) time.Duration {
	if capacity <= 0 || hold <= 0 {
		return 0
	}
	if need < 1 {
		need = 1
	}
	waves := (occupied + need + capacity - 1) / capacity
	return time.Duration(waves) * hold
}
