package plan

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// calibrated returns an estimator warmed with a few distinctive samples.
func calibrated(t *testing.T) *Estimator {
	t.Helper()
	e := NewEstimator(3, 0.5)
	for i := 0; i < 5; i++ {
		e.Observe(Sample{
			Postings:        1000,
			PostingsScanned: 400,
			Tables1:         20,
			Tables:          30,
			Alg:             1,
			Probe2Ran:       true,
			Probe1:          2 * time.Millisecond,
			Read1:           time.Millisecond,
			Probe2:          3 * time.Millisecond,
			Read2:           time.Millisecond,
			Build:           4 * time.Millisecond,
			Infer:           5 * time.Millisecond,
			Cons:            time.Millisecond,
		})
	}
	return e
}

// TestSnapshotRoundTrip: Restore(Snapshot()) must reproduce the estimator
// exactly — same estimates, same calibration state, same error gauge.
func TestSnapshotRoundTrip(t *testing.T) {
	e := calibrated(t)
	want := estimate(e, 5000, 40, 1, true)
	if want == 0 {
		t.Fatal("calibrated estimator returned a zero estimate")
	}

	e2 := NewEstimator(3, DefaultAlpha)
	if err := e2.Restore(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := estimate(e2, 5000, 40, 1, true); got != want {
		t.Fatalf("restored estimate %v != %v", got, want)
	}
	if !e2.Calibrated(1) {
		t.Fatal("restored estimator not calibrated for alg 1")
	}
	if e2.Calibrated(2) {
		t.Fatal("never-observed alg 2 calibrated after restore")
	}
	if e2.ErrorRate() != e.ErrorRate() {
		t.Fatalf("error gauge %v != %v after restore", e2.ErrorRate(), e.ErrorRate())
	}
}

// TestRestoreVersionMismatch: a future-versioned snapshot must be
// rejected, naming both versions.
func TestRestoreVersionMismatch(t *testing.T) {
	s := NewEstimator(1, DefaultAlpha).Snapshot()
	s.Version = 99
	err := NewEstimator(1, DefaultAlpha).Restore(s)
	if err == nil {
		t.Fatal("Restore accepted version 99")
	}
	if !strings.Contains(err.Error(), "version 99") || !strings.Contains(err.Error(), "1") {
		t.Fatalf("error %q does not name both versions", err)
	}
}

// TestRestoreAlgSlotMismatch: extra snapshot slots are dropped, missing
// ones leave the estimator's slots cold.
func TestRestoreAlgSlotMismatch(t *testing.T) {
	wide := calibrated(t) // 3 slots, alg 1 calibrated
	narrow := NewEstimator(1, DefaultAlpha)
	if err := narrow.Restore(wide.Snapshot()); err != nil {
		t.Fatal(err)
	}
	e5 := NewEstimator(5, DefaultAlpha)
	if err := e5.Restore(wide.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !e5.Calibrated(1) || e5.Calibrated(4) {
		t.Fatal("slot-mismatch restore mis-set calibration")
	}
}

// TestSaveLoadFile: the sidecar file round-trips, a missing file loads as
// a no-op, and a corrupt one fails mentioning the path.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan-coeffs.json")
	e := calibrated(t)
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	e2 := NewEstimator(3, DefaultAlpha)
	loaded, err := e2.LoadFile(path)
	if err != nil || !loaded {
		t.Fatalf("LoadFile = %v, %v", loaded, err)
	}
	if got, want := estimate(e2, 5000, 40, 1, true), estimate(e, 5000, 40, 1, true); got != want {
		t.Fatalf("estimate after file round-trip %v != %v", got, want)
	}

	if loaded, err := NewEstimator(3, DefaultAlpha).LoadFile(filepath.Join(dir, "absent.json")); err != nil || loaded {
		t.Fatalf("missing sidecar: LoadFile = %v, %v, want false, nil", loaded, err)
	}

	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEstimator(3, DefaultAlpha).LoadFile(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt sidecar error %v does not mention the path", err)
	}

	// No stray temp files left next to the sidecar.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("sidecar dir has %d entries, want 1: %v", len(ents), ents)
	}
}

// TestSkipRatioScalesEstimate: an observed skip ratio must shrink the
// probe-1 term of query estimates relative to nominal postings.
func TestSkipRatioScalesEstimate(t *testing.T) {
	withSkips := calibrated(t) // scanned/postings = 0.4, ns per scanned posting
	noStats := NewEstimator(3, 0.5)
	for i := 0; i < 5; i++ {
		noStats.Observe(Sample{
			Postings: 1000, Tables1: 20, Tables: 30, Alg: 1, Probe2Ran: true,
			Probe1: 2 * time.Millisecond, Read1: time.Millisecond,
			Probe2: 3 * time.Millisecond, Read2: time.Millisecond,
			Build: 4 * time.Millisecond, Infer: 5 * time.Millisecond, Cons: time.Millisecond,
		})
	}
	// Same observed wall times: the with-skips model attributes the probe
	// cost to 400 scanned postings and predicts 0.4x survival, so both
	// must agree on the whole-query estimate (coef x ratio cancels) —
	// while the per-scanned-posting coefficient itself is 2.5x larger.
	a := estimate(withSkips, 1000, 30, 1, true)
	b := estimate(noStats, 1000, 30, 1, true)
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Microsecond {
		t.Fatalf("estimates diverge: with skips %v, without %v", a, b)
	}
	if withSkips.Snapshot().Probe1.V <= noStats.Snapshot().Probe1.V {
		t.Fatal("per-scanned-posting coefficient not larger than per-nominal-posting one")
	}
}
