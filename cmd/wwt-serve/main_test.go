package main

import (
	"strings"
	"testing"
)

// TestRetiredPlanCoeffs: the retired -plan-coeffs flag accepts only its
// empty value; any path is refused with an error that says it is retired.
func TestRetiredPlanCoeffs(t *testing.T) {
	if err := checkRetiredPlanCoeffs(""); err != nil {
		t.Fatalf("empty -plan-coeffs refused: %v", err)
	}
	for _, v := range []string{"x", "idx/plan-coeffs.json"} {
		err := checkRetiredPlanCoeffs(v)
		if err == nil || !strings.Contains(err.Error(), "retired") {
			t.Fatalf("-plan-coeffs=%s: err = %v, want a retired-flag error", v, err)
		}
	}
}
