package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wwt/internal/corpusgen"
)

func corpus() *corpusgen.Corpus {
	return corpusgen.Generate(corpusgen.Config{Seed: 1, Scale: 0.1, JunkPages: 1})
}

func TestFromCorpusShape(t *testing.T) {
	qs := FromCorpus(corpus())
	if len(qs) != 59 {
		t.Fatalf("queries = %d, want 59", len(qs))
	}
	arity := map[int]int{}
	for i, q := range qs {
		if q.ID != i+1 {
			t.Errorf("query %d has ID %d", i, q.ID)
		}
		if len(q.Columns) != len(q.Keys) {
			t.Errorf("%s: columns/keys mismatch", q)
		}
		arity[q.Q()]++
	}
	if arity[1] != 5 || arity[2] != 37 || arity[3] != 17 {
		t.Errorf("arity split = %v, want 5/37/17", arity)
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Columns: []string{"country", "currency"}}
	if got := q.String(); got != "country | currency" {
		t.Errorf("String = %q", got)
	}
}

func TestByDomain(t *testing.T) {
	qs := FromCorpus(corpus())
	q, err := ByDomain(qs, "country-currency")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "currency") {
		t.Errorf("wrong query: %s", q)
	}
	if _, err := ByDomain(qs, "missing"); err == nil {
		t.Error("missing domain accepted")
	}
}

func TestWorkloadMatchesPaperQueries(t *testing.T) {
	// Spot-check a few Table 1 queries appear verbatim.
	qs := FromCorpus(corpus())
	want := []string{
		"dog breed",
		"country | currency",
		"name of explorers | nationality | areas explored",
		"chemical element | atomic number | atomic weight",
		"us states | capitals | largest cities",
	}
	have := map[string]bool{}
	for _, q := range qs {
		have[q.String()] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("workload missing paper query %q", w)
		}
	}
	_ = rand.Int
}

// ByDomain returns the query bound to the named domain.
func ByDomain(qs []Query, domain string) (Query, error) {
	for _, q := range qs {
		if q.Domain == domain {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("workload: no query for domain %q", domain)
}
