// Package consolidate stands in for the real answer consolidator: its
// import path suffix-matches internal/consolidate, so row ranking must use
// the generic sort family too.
package consolidate

import (
	"slices"
	"sort"
)

type row struct {
	support int
	key     string
}

func rankRows(rows []row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].support > rows[j].support }) // want `sort.SliceStable uses reflection on a hot path; use slices.SortStableFunc`
	slices.SortStableFunc(rows, func(a, b row) int { return b.support - a.support })
}
