package core

// PartMatchReport records, for one (query column, table column) pair,
// which outSim parts matched at least one query token while the column
// header also pinned part of the query (positive inSim). It feeds the
// reliability estimation of §3.2.1 (internal/train).
type PartMatchReport struct {
	// AnyInSim reports whether any header row of the column shares a
	// token with the query column (a positive inSim pin is possible).
	AnyInSim bool
	// Parts flags matches in T, C, Hc, Hr, B order.
	Parts [5]bool
}

// PartMatches analyzes which parts of table view v support query column
// qc at column c.
func PartMatches(qc *QueryColumn, v *TableView, c int) PartMatchReport {
	var rep PartMatchReport
	if c >= v.NumCols {
		return rep
	}
	var qt queryTokens
	qt.reset(qc.Tokens)
	qt.resolve(qc.Tokens, v.in)
	h := &qt.hits
	h.fill(v, qt.ids)
	for r := 0; r < v.HeaderRowCount(); r++ {
		if h.any(r*v.NumCols+c, 0, len(qc.Tokens)) {
			rep.AnyInSim = true
		}
	}
	if !rep.AnyInSim {
		return rep
	}
	for i, id := range qt.ids {
		if v.inTitle(id) {
			rep.Parts[0] = true
		}
		if v.contextScore(id) > 0 {
			rep.Parts[1] = true
		}
		for r := 0; r < v.HeaderRowCount(); r++ {
			if h.otherRowsHave(v, r, c, i) {
				rep.Parts[2] = true
			}
			if h.otherColsHave(v, r, c, i) {
				rep.Parts[3] = true
			}
		}
		if v.inFreqBody(id) {
			rep.Parts[4] = true
		}
	}
	return rep
}
