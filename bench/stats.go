package main

import (
	"math"
	"slices"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest of the reported percentiles that
// still has at least ten samples beyond it in a sample of n, or 0 when
// not even the median does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// quartiles returns the first, second and third quartile of vs the way
// Python's statistics.quantiles(vs, n=4) does (exclusive method), so
// spreads computed here match the acceptance check. It needs two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return percentile(s, 50)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	slices.Sort(out)
	return out
}

// normCell folds case and whitespace, the only differences allowed
// between an answer cell and a ground-truth cell.
func normCell(s string) string { return strings.Join(strings.Fields(strings.ToLower(s)), " ") }

// rowPrecisionAt10 scores one Table-1 answer: how many of its first ten
// rows are correct, and how many it has. A row is correct when its
// non-empty cells all match one entity (row of truth) on the query's
// columns; cols[i] is the truth column of answer column i. A row with no
// non-empty cell is wrong.
func rowPrecisionAt10(rows [][]string, truth [][]string, cols []int) (correct, total int) {
	if len(rows) > 10 {
		rows = rows[:10]
	}
	for _, row := range rows {
		if rowMatchesEntity(row, truth, cols) {
			correct++
		}
	}
	return correct, len(rows)
}

func rowMatchesEntity(row []string, truth [][]string, cols []int) bool {
	for _, ent := range truth {
		filled, match := 0, true
		for i, cell := range row {
			if i >= len(cols) {
				break
			}
			c := normCell(cell)
			if c == "" {
				continue
			}
			filled++
			if cols[i] < 0 || cols[i] >= len(ent) || normCell(ent[cols[i]]) != c {
				match = false
				break
			}
		}
		if match && filled > 0 {
			return true
		}
	}
	return false
}
