package extract

import (
	"strings"

	"wwt/internal/wtable"
)

// classifyRows implements the §2.1.1 heuristic. Rows are assumed to consist
// of zero or more title rows, then zero or more header rows, then body rows.
// Scanning from the top, a row is "different" from most of the rows below it
// when it diverges on formatting (bold/italic/underline/capitalization/
// header tags), layout (background color, CSS classes) or content (textual
// row over numeric body, character counts).
//
// A different row is a *title* when all but the first column is empty (a
// caption-like row; the paper's text has an apparent typo here — its own
// Figure 1 Table 3 title is a single-cell row). Otherwise it is a header.
// Subsequent rows stay headers while they are similar to the first header
// row and different from the rows below; the scan stops at the first
// failure. cues[i] is row i's layout cue.
func classifyRows(rows []wtable.Row, cues []rowCue, tb *wtable.Table) {
	i := 0
	// Title rows: leading "different" rows with content only in column 1.
	for i < len(rows) && i < 3 {
		if !rowDifferent(rows[i], cues[i], rows[i+1:], cues[i+1:]) {
			break
		}
		if !titleShaped(rows[i]) {
			break
		}
		tb.TitleRows = append(tb.TitleRows, rows[i])
		i++
	}
	// Header rows.
	first := -1 // the first header row
	for i < len(rows) {
		if len(rows[i:]) == 1 {
			break // never classify the last row as header
		}
		if first < 0 {
			if !rowDifferent(rows[i], cues[i], rows[i+1:], cues[i+1:]) {
				break
			}
			first = i
			tb.HeaderRows = append(tb.HeaderRows, rows[i])
			i++
			continue
		}
		if rowsSimilar(rows[i], cues[i], rows[first], cues[first]) && rowDifferent(rows[i], cues[i], rows[i+1:], cues[i+1:]) {
			tb.HeaderRows = append(tb.HeaderRows, rows[i])
			i++
			continue
		}
		break
	}
	tb.BodyRows = rows[i:]
}

// titleShaped reports whether a row looks like a title: at most the first
// cell is non-empty, or it is a single-cell row.
func titleShaped(r wtable.Row) bool {
	if len(r.Cells) == 1 {
		return !r.Cells[0].IsEmpty()
	}
	if r.Cells[0].IsEmpty() {
		return false
	}
	for _, c := range r.Cells[1:] {
		if !c.IsEmpty() {
			return false
		}
	}
	return true
}

// rowDifferent reports whether r differs from the majority of the rows
// below it on at least one of the §2.1.1 signal families; c and
// belowCues are their layout cues.
func rowDifferent(r wtable.Row, c rowCue, below []wtable.Row, belowCues []rowCue) bool {
	if len(below) == 0 {
		return false
	}
	diff := 0
	for i, b := range below {
		if rowSignalsDiffer(r, c, b, belowCues[i]) {
			diff++
		}
	}
	return diff*2 > len(below)
}

// rowSignalsDiffer compares two rows, with their layout cues, on
// formatting, layout and content signals.
func rowSignalsDiffer(a wtable.Row, ca rowCue, b wtable.Row, cb rowCue) bool {
	fa, fb := rowFingerprint(a, ca), rowFingerprint(b, cb)
	if fa.th != fb.th || fa.bold != fb.bold || fa.italic != fb.italic ||
		fa.underline != fb.underline || fa.bg != fb.bg || fa.class != fb.class {
		return true
	}
	if fa.capitalized != fb.capitalized {
		return true
	}
	// Content: textual header over numeric body.
	if fa.numeric != fb.numeric {
		return true
	}
	// Content: large divergence in average cell length.
	la, lb := fa.avgLen, fb.avgLen
	if la > 0 && lb > 0 && (la > 3*lb || lb > 3*la) {
		return true
	}
	return false
}

type rowPrint struct {
	th, bold, italic, underline bool
	bg, class                   string
	capitalized                 bool
	numeric                     bool
	avgLen                      float64
}

func rowFingerprint(r wtable.Row, cue rowCue) rowPrint {
	p := rowPrint{bg: cue.bg, class: cue.class}
	nonEmpty, caps, numeric, chars := 0, 0, 0, 0
	for _, c := range r.Cells {
		if c.IsTH {
			p.th = true
		}
		if c.Bold {
			p.bold = true
		}
		if c.Italic {
			p.italic = true
		}
		if c.Underline {
			p.underline = true
		}
		t := strings.TrimSpace(c.Text)
		if t == "" {
			continue
		}
		nonEmpty++
		chars += len(t)
		if isCapitalized(t) {
			caps++
		}
		if isNumericText(t) {
			numeric++
		}
	}
	if nonEmpty > 0 {
		p.capitalized = caps*2 > nonEmpty
		p.numeric = numeric*2 > nonEmpty
		p.avgLen = float64(chars) / float64(nonEmpty)
	}
	return p
}

// rowsSimilar reports whether two rows share the formatting profile —
// used to chain additional header rows onto the first one.
func rowsSimilar(a wtable.Row, ca rowCue, b wtable.Row, cb rowCue) bool {
	fa, fb := rowFingerprint(a, ca), rowFingerprint(b, cb)
	return fa.th == fb.th && fa.bold == fb.bold && fa.bg == fb.bg &&
		fa.class == fb.class && fa.numeric == fb.numeric
}

func isCapitalized(s string) bool {
	return len(s) > 0 && s[0] >= 'A' && s[0] <= 'Z'
}

// isNumericText reports whether s is predominantly numeric (numbers,
// currency, percentages, dates).
func isNumericText(s string) bool {
	digits, letters := 0, 0
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] >= '0' && s[i] <= '9':
			digits++
		case (s[i] >= 'a' && s[i] <= 'z') || (s[i] >= 'A' && s[i] <= 'Z'):
			letters++
		}
	}
	return digits > 0 && digits >= letters
}
