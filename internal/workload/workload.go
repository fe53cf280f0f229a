// Package workload exposes the 59-query evaluation workload of the
// paper's Table 1: 5 single-column, 37 two-column and 17 three-column
// queries, each bound to the corpus domain that generates its candidate
// universe and to the semantic attribute keys that define ground truth.
package workload

import "wwt/internal/corpusgen"

// Query is one evaluation query.
type Query struct {
	ID      int      // 1-based position in Table 1 order
	Columns []string // the raw column keyword sets Q1..Qq
	Keys    []string // semantic attribute key per column
	Domain  string   // generating domain name
}

// Q returns the number of query columns.
func (q Query) Q() int { return len(q.Columns) }

// String renders the query in the paper's "a | b | c" form.
func (q Query) String() string {
	s := ""
	for i, c := range q.Columns {
		if i > 0 {
			s += " | "
		}
		s += c
	}
	return s
}

// FromCorpus derives the workload from a generated corpus: one query per
// domain, in domain declaration order (which follows Table 1).
func FromCorpus(c *corpusgen.Corpus) []Query {
	out := make([]Query, len(c.Domains))
	for i, d := range c.Domains {
		out[i] = Query{
			ID:      i + 1,
			Columns: append([]string(nil), d.Query...),
			Keys:    append([]string(nil), d.Keys...),
			Domain:  d.Name,
		}
	}
	return out
}
