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
	for r := 0; r < v.HeaderRowCount(); r++ {
		for _, w := range qc.Tokens {
			if v.headerHas(r, c, w) {
				rep.AnyInSim = true
			}
		}
	}
	if !rep.AnyInSim {
		return rep
	}
	for _, w := range qc.Tokens {
		id := v.in.Lookup(w)
		if v.inTitle(id) {
			rep.Parts[0] = true
		}
		if v.contextScore(id) > 0 {
			rep.Parts[1] = true
		}
		for r := 0; r < v.HeaderRowCount(); r++ {
			if v.otherHeaderRowsHave(r, c, w) {
				rep.Parts[2] = true
			}
			if v.otherHeaderColsHave(r, c, w) {
				rep.Parts[3] = true
			}
		}
		if v.inFreqBody(id) {
			rep.Parts[4] = true
		}
	}
	return rep
}
