package core

import (
	"fmt"
	"reflect"
	"testing"
)

// modelDiff names the first per-table grid or edge list on which got and
// want differ, or returns "" when they are bit-identical. Views are
// compared by identity when sameViews (builds sharing a ViewCache) and by
// width otherwise: cacheless builds mint fresh views.
func modelDiff(got, want *Model, sameViews bool) string {
	if len(got.Views) != len(want.Views) {
		return fmt.Sprintf("%d tables, want %d", len(got.Views), len(want.Views))
	}
	for ti := range want.Views {
		if got.Views[ti].NumCols != want.Views[ti].NumCols || sameViews && got.Views[ti] != want.Views[ti] {
			return fmt.Sprintf("view %d", ti)
		}
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Feats", got.Feats, want.Feats},
		{"Rel", got.Rel, want.Rel},
		{"Node", got.Node, want.Node},
		{"Dist", got.Dist, want.Dist},
		{"Conf", got.Conf, want.Conf},
		{"rawEdges", got.rawEdges, want.rawEdges},
		{"Edges", got.Edges, want.Edges},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return f.name
		}
	}
	return ""
}

// TestExtendMatchesBuild pins the two-half build: BuildTables over a
// prefix of each corpus query's candidates, then Extend with the rest, is
// bit-identical to one Build over the whole list — per-table state and
// edges alike. Splits are the empty prefix, one table, half and all of
// the list. Every split runs through one scratch reused (dirty) across
// all queries and through a fresh one, whose grids must grow with the
// prefix in place. The engine's configuration (a shared ViewCache) runs
// on every query; cacheless and PMI² builders on every fourth.
func TestExtendMatchesBuild(t *testing.T) {
	searcher, cases := corpusCases(t, 0.25, 40)
	pmiParams := DefaultParams()
	pmiParams.UsePMI = true
	views := NewViewCache()
	variants := []struct {
		name  string
		every int
		build func() *Builder
	}{
		{"engine", 1, func() *Builder {
			return &Builder{Params: DefaultParams(), Stats: searcher, Views: views}
		}},
		{"cacheless", 4, func() *Builder { return &Builder{Params: DefaultParams(), Stats: searcher} }},
		{"pmi", 4, func() *Builder {
			return &Builder{Params: pmiParams, Stats: searcher, PMI: searcher, Views: views}
		}},
	}
	var dirty BuildScratch
	for _, v := range variants {
		for qi, c := range cases {
			if qi%v.every != 0 {
				continue
			}
			all := c.tables
			want := v.build().Build(c.cols, all)
			for _, k := range []int{0, 1, len(all) / 2, len(all)} {
				if k > len(all) {
					continue // no candidates at all
				}
				for _, s := range []*BuildScratch{&dirty, {}} {
					b := v.build()
					got := b.BuildTables(c.cols, all[:k], s)
					got.Extend(b, all[k:], s)
					if d := modelDiff(got, want, v.name != "cacheless"); d != "" {
						t.Fatalf("%s, query %v, split %d of %d: %s diverged", v.name, c.cols, k, len(all), d)
					}
				}
			}
		}
	}
}
