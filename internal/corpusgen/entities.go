// Package corpusgen synthesizes the web crawl that stands in for the
// paper's 500M-page corpus (§2.1, §5). It generates HTML pages
// containing relational data tables for 59 query domains — with the noise
// phenomena the column mapper must survive (headerless tables, multi-row
// and split headers, uninformative header text, keyword split between
// header and context, content-overlapping confusable tables) — plus layout
// junk, and emits a ground-truth ledger keyed by extracted table ID.
package corpusgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Attr describes one semantic column. Key is the global semantic identity
// used by ground truth (e.g. "country"); Headers are informative header
// variants; Uninformative are generic variants ("Name") that defeat header
// matching.
type Attr struct {
	Key           string
	Headers       []string
	Uninformative []string
}

// NoiseProfile sets the per-table corruption rates for a domain's
// relevant tables. Rates are probabilities in [0,1].
type NoiseProfile struct {
	Headerless    float64 // drop the header row entirely (paper: 18% corpus-wide)
	Uninformative float64 // replace a header with a generic variant
	SplitContext  float64 // keep only the last header word; move the rest to context
	MultiRow      float64 // split a header's words across two header rows
	Spurious      float64 // append a junk second header row
	TH            float64 // use <th> tags (paper: 20%)
}

// Difficulty presets, assigned across domains to spread Basic's error over
// the seven query groups of §5.
var (
	profileClean  = NoiseProfile{Headerless: 0.05, Uninformative: 0.05, SplitContext: 0.05, MultiRow: 0.10, Spurious: 0.05, TH: 0.2}
	profileMedium = NoiseProfile{Headerless: 0.20, Uninformative: 0.15, SplitContext: 0.25, MultiRow: 0.15, Spurious: 0.10, TH: 0.2}
	profileHard   = NoiseProfile{Headerless: 0.35, Uninformative: 0.30, SplitContext: 0.45, MultiRow: 0.20, Spurious: 0.15, TH: 0.2}
	profileBrutal = NoiseProfile{Headerless: 0.55, Uninformative: 0.45, SplitContext: 0.60, MultiRow: 0.25, Spurious: 0.20, TH: 0.2}
)

// Domain is one topical universe bound to a workload query.
type Domain struct {
	Name   string
	Query  []string // the query column keyword sets, verbatim from Table 1
	Keys   []string // semantic key per query column
	Phrase string   // topical phrase used in titles and context

	Attrs []Attr     // all columns available; Attrs[i] aligns with Rows[*][i]
	Rows  [][]string // entity matrix

	Relevant   int // how many relevant tables to generate
	Confusable int // tables with the key attribute but too few query attrs
	Noise      NoiseProfile
}

// attrIndex returns the position of key in d.Attrs, or -1.
func (d *Domain) attrIndex(key string) int {
	for i, a := range d.Attrs {
		if a.Key == key {
			return i
		}
	}
	return -1
}

// --- procedural entity generation -----------------------------------------

var procSyllables = []string{
	"ba", "ra", "ta", "ko", "mi", "su", "ve", "lo", "dan", "mar",
	"sel", "tor", "ny", "qua", "zen", "pol", "gar", "lin", "fe", "du",
}

// procName builds a deterministic pseudo-name of the given word count.
func procName(rng *rand.Rand, words int) string {
	parts := make([]string, words)
	for w := 0; w < words; w++ {
		n := 2 + rng.Intn(2)
		var b strings.Builder
		for i := 0; i < n; i++ {
			s := procSyllables[rng.Intn(len(procSyllables))]
			if i == 0 {
				s = strings.ToUpper(s[:1]) + s[1:]
			}
			b.WriteString(s)
		}
		parts[w] = b.String()
	}
	return strings.Join(parts, " ")
}

// procColumn kinds for procedural attribute values.
const (
	procKindName = iota
	procKindYear
	procKindNumber
	procKindMoney
	procKindDate
)

type procCol struct {
	kind   int
	lo, hi int    // numeric range for year/number/money
	suffix string // e.g. " million"
	words  int    // name word count
}

// procMatrix generates n aligned entity rows for the given column specs.
func procMatrix(rng *rand.Rand, n int, cols []procCol) [][]string {
	months := []string{"January", "March", "May", "June", "September", "October", "November"}
	rows := make([][]string, n)
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		row := make([]string, len(cols))
		for j, c := range cols {
			switch c.kind {
			case procKindYear:
				row[j] = fmt.Sprintf("%d", c.lo+rng.Intn(c.hi-c.lo+1))
			case procKindNumber:
				row[j] = fmt.Sprintf("%d%s", c.lo+rng.Intn(c.hi-c.lo+1), c.suffix)
			case procKindMoney:
				row[j] = fmt.Sprintf("%d%s", c.lo+rng.Intn(c.hi-c.lo+1), c.suffix)
			case procKindDate:
				row[j] = fmt.Sprintf("%s %d", months[rng.Intn(len(months))], c.lo+rng.Intn(c.hi-c.lo+1))
			default:
				w := c.words
				if w == 0 {
					w = 2
				}
				name := procName(rng, w)
				for seen[name] {
					name = procName(rng, w)
				}
				seen[name] = true
				row[j] = name
			}
		}
		rows[i] = row
	}
	return rows
}

// column assembles an aligned matrix from per-attribute value slices; all
// slices must be the same length.
func column(cols ...[]string) [][]string {
	if len(cols) == 0 {
		return nil
	}
	n := len(cols[0])
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		row := make([]string, len(cols))
		for j, c := range cols {
			row[j] = c[i]
		}
		rows[i] = row
	}
	return rows
}
