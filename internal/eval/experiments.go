package eval

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"wwt"
	"wwt/internal/consolidate"
	"wwt/internal/core"
	"wwt/internal/inference"
	"wwt/internal/text"
)

// This file renders every table and figure of the paper's evaluation (§5)
// from a Runner's cached results. Each Experiment* function writes a plain
// text block; cmd/wwt-experiments drives them.

// ExperimentTable1 prints the query set with total and relevant source
// table counts (paper Table 1).
func ExperimentTable1(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "=== Table 1: query set with candidate counts ===")
	results := r.RunAll()
	var totalAll, relAll int
	arity := map[int]string{1: "Single", 2: "Two", 3: "Three"}
	for _, res := range results {
		total := len(res.Tables)
		rel := res.GT.RelevantCount()
		totalAll += total
		relAll += rel
		fmt.Fprintf(w, "%-7s %-70s total=%-3d relevant=%-3d\n",
			arity[res.Query.Q()], res.Query.String(), total, rel)
	}
	fmt.Fprintf(w, "queries=%d  avg candidates/query=%.2f  avg relevant fraction=%.0f%%\n",
		len(results), float64(totalAll)/float64(len(results)),
		100*float64(relAll)/float64(maxInt(totalAll, 1)))
}

// ExperimentCorpusStats prints the offline-pipeline statistics of §2.1:
// the header-row distribution over extracted tables (paper: 60% one
// header row, 18% none, 17% two, 5% more) and the data-table yield of
// the extraction filter (paper: ~10% of table tags carry data).
func ExperimentCorpusStats(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "=== §2.1: offline corpus statistics ===")
	counts := map[int]int{}
	th := 0
	for _, tb := range r.Tables {
		n := tb.NumHeaderRows()
		if n > 3 {
			n = 3
		}
		counts[n]++
		usesTH := false
		for _, row := range tb.HeaderRows {
			for _, cell := range row.Cells {
				if cell.IsTH {
					usesTH = true
				}
			}
		}
		if usesTH {
			th++
		}
	}
	total := len(r.Tables)
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "extracted data tables: %d from %d pages\n", total, len(r.Corpus.Pages))
	fmt.Fprintf(w, "header rows: none=%.0f%% one=%.0f%% two=%.0f%% more=%.0f%% (paper: 18/60/17/5)\n",
		100*float64(counts[0])/float64(total), 100*float64(counts[1])/float64(total),
		100*float64(counts[2])/float64(total), 100*float64(counts[3])/float64(total))
	fmt.Fprintf(w, "tables using <th>: %.0f%% (paper: 20%%)\n", 100*float64(th)/float64(total))
}

// ExperimentProbe2 prints the §2.2.1 second-probe statistics: usage rate,
// the relevant fraction per stage, and how many relevant tables only the
// second stage retrieves.
func ExperimentProbe2(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "=== §2.2.1: two-stage index probe statistics ===")
	results := r.RunAll()
	used := 0
	var rel1, tot1, rel2, tot2, stage2RelSum, relSum int
	opts := r.Engine.Opts
	opts.SecondProbe = false
	single, err := wwt.NewEngine(r.Tables, &opts)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	defer single.Close()
	// One batch over the probe2 queries on the single-probe engine: its
	// candidates are the first stage's.
	var probe2 []*QueryResult
	var wqs []wwt.Query
	for _, res := range results {
		if res.UsedProbe2 {
			probe2 = append(probe2, res)
			wqs = append(wqs, wwt.Query{Columns: res.Query.Columns})
			used++
		}
	}
	stage1 := single.AnswerBatchCtx(context.Background(), wqs, r.batchWorkers(), 0)
	for i, res := range probe2 {
		if stage1.Errs[i] != nil {
			continue
		}
		tables := stage1.Results[i].Tables
		inStage1 := make(map[string]bool, len(tables))
		for _, tb := range tables {
			inStage1[tb.ID] = true
			tot1++
			if res.GT.Relevant[tb.ID] {
				rel1++
			}
		}
		for _, tb := range res.Tables {
			if res.GT.Relevant[tb.ID] {
				relSum++
			}
			if inStage1[tb.ID] {
				continue
			}
			tot2++
			if res.GT.Relevant[tb.ID] {
				rel2++
				stage2RelSum++
			}
		}
	}
	fmt.Fprintf(w, "second probe used: %d/%d queries (%.0f%%; paper: 65%%)\n",
		used, len(results), 100*float64(used)/float64(len(results)))
	if tot1 > 0 && tot2 > 0 {
		fmt.Fprintf(w, "relevant fraction: stage1 %.0f%%, stage2 %.0f%% (paper: 52%% vs 70%%)\n",
			100*float64(rel1)/float64(tot1), 100*float64(rel2)/float64(tot2))
	}
	if relSum > 0 {
		fmt.Fprintf(w, "share of relevant tables only reachable via stage2: %.0f%% (paper: ~50%%)\n",
			100*float64(stage2RelSum)/float64(relSum))
	}
}

// ExperimentFig5 prints the error reduction relative to Basic of PMI²,
// NbrText and WWT over the seven hard-query groups (paper Fig. 5).
func ExperimentFig5(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "=== Figure 5: error reduction over Basic by query group ===")
	results := r.RunAll()
	easy, hard := EasyHard(results)
	fmt.Fprintf(w, "easy queries: %d (all methods within 0.5%%), hard queries: %d\n",
		len(easy), len(hard))
	fmt.Fprintf(w, "mean error on easy queries: Basic=%.1f WWT=%.1f\n",
		MeanError(easy, MethodBasic), MeanError(easy, MethodWWT))
	groups := Groups(hard)
	fmt.Fprintf(w, "%-6s %-3s %-10s %-10s %-10s %-10s\n",
		"group", "n", "Basic", "dPMI2", "dNbrText", "dWWT")
	for gi, g := range groups {
		b := MeanError(g, MethodBasic)
		fmt.Fprintf(w, "%-6d %-3d %-10.1f %-+10.1f %-+10.1f %-+10.1f\n",
			gi+1, len(g), b,
			b-MeanError(g, MethodPMI2),
			b-MeanError(g, MethodNbrText),
			b-MeanError(g, MethodWWT))
	}
	fmt.Fprintf(w, "overall (hard): Basic=%.1f PMI2=%.1f NbrText=%.1f WWT=%.1f\n",
		MeanError(hard, MethodBasic), MeanError(hard, MethodPMI2),
		MeanError(hard, MethodNbrText), MeanError(hard, MethodWWT))
	singles := filterArity(hard, 1)
	if len(singles) > 0 {
		fmt.Fprintf(w, "single-column queries: WWT=%.1f PMI2=%.1f\n",
			MeanError(singles, MethodWWT), MeanError(singles, MethodPMI2))
	}
}

// ExperimentFig6 prints the consolidated-answer row error of WWT vs Basic
// per query group (paper Fig. 6).
func ExperimentFig6(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "=== Figure 6: answer-row error by query group ===")
	results := r.RunAll()
	_, hard := EasyHard(results)
	groups := Groups(hard)
	fmt.Fprintf(w, "%-6s %-3s %-10s %-10s\n", "group", "n", "Basic", "WWT")
	for gi, g := range groups {
		var basicErr, wwtErr float64
		for _, res := range g {
			truthRows := answerRows(res, res.GT.Labeling(res.Tables))
			basicErr += RowSetError(answerRows(res, res.Labelings[MethodBasic]), truthRows)
			wwtErr += RowSetError(answerRows(res, res.Labelings[MethodWWT]), truthRows)
		}
		n := float64(len(g))
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(w, "%-6d %-3d %-10.1f %-10.1f\n", gi+1, len(g), basicErr/n, wwtErr/n)
	}
}

// answerRows consolidates under a labeling and returns normalized full-row
// keys (all cells, analyzed and joined), the row identity used by Fig. 6.
func answerRows(res *QueryResult, l core.Labeling) []string {
	ans := consolidate.Consolidate(res.Query.Q(), res.Model.Views, l, nil, nil)
	keys := make([]string, 0, len(ans.Rows))
	for _, row := range ans.Rows {
		var parts []string
		for _, cell := range row.Cells {
			parts = append(parts, strings.Join(text.Normalize(cell), " "))
		}
		keys = append(keys, strings.Join(parts, " | "))
	}
	return keys
}

// ExperimentFig7 prints the per-query running time split (paper Fig. 7).
func ExperimentFig7(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "=== Figure 7: running time split per query (ms) ===")
	results := r.RunAll()
	sorted := append([]*QueryResult(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Timings.Total() < sorted[j].Timings.Total()
	})
	fmt.Fprintf(w, "%-40s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"query", "probe1", "read1", "probe2", "read2", "colmap", "infer", "consol", "total")
	var tot time.Duration
	for _, res := range sorted {
		t := res.Timings
		tot += t.Total()
		fmt.Fprintf(w, "%-40s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			clipStr(res.Query.String(), 40),
			ms(t.Probe1), ms(t.Read1), ms(t.Probe2), ms(t.Read2),
			ms(t.ColumnMap), ms(t.Infer), ms(t.Consolidate), ms(t.Total()))
	}
	fmt.Fprintf(w, "average total: %.2f ms\n", ms(tot)/float64(len(sorted)))
}

// ExperimentFig8 prints the per-query segmented vs unsegmented errors
// (paper Fig. 8's scatter, as a table).
func ExperimentFig8(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "=== Figure 8: segmented vs unsegmented similarity (per hard query) ===")
	results := r.RunAll()
	_, hard := EasyHard(results)
	better, worse, equal := 0, 0, 0
	fmt.Fprintf(w, "%-50s %12s %12s\n", "query", "unsegmented", "segmented")
	for _, res := range hard {
		seg := res.Errors[MethodWWT]
		unseg := res.Errors[MethodUnseg]
		switch {
		case seg < unseg-1e-9:
			better++
		case seg > unseg+1e-9:
			worse++
		default:
			equal++
		}
		fmt.Fprintf(w, "%-50s %12.1f %12.1f\n", clipStr(res.Query.String(), 50), unseg, seg)
	}
	fmt.Fprintf(w, "segmented better on %d, worse on %d, equal on %d of %d hard queries\n",
		better, worse, equal, len(hard))
	fmt.Fprintf(w, "overall (hard): unsegmented=%.1f segmented=%.1f\n",
		MeanError(hard, MethodUnseg), MeanError(hard, MethodWWT))
}

// ExperimentTable2 prints the collective inference comparison (paper
// Table 2) plus measured runtime ratios.
func ExperimentTable2(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "=== Table 2: collective inference algorithms, F1 error by group ===")
	results := r.RunAll()
	_, hard := EasyHard(results)
	groups := Groups(hard)
	algs := inference.Algorithms
	header := fmt.Sprintf("%-6s", "group")
	for _, a := range algs {
		header += fmt.Sprintf(" %13s", a.String())
	}
	fmt.Fprintln(w, header)
	for gi, g := range groups {
		line := fmt.Sprintf("%-6d", gi+1)
		for _, a := range algs {
			line += fmt.Sprintf(" %13.1f", MeanError(g, a.String()))
		}
		fmt.Fprintln(w, line)
	}
	line := fmt.Sprintf("%-6s", "all")
	for _, a := range algs {
		line += fmt.Sprintf(" %13.1f", MeanError(hard, a.String()))
	}
	fmt.Fprintln(w, line)

	// Runtime ratios relative to the table-centric algorithm.
	total := map[string]time.Duration{}
	for _, res := range results {
		for name, d := range res.InferenceTime {
			total[name] += d
		}
	}
	base := total[inference.TableCentric.String()]
	if base > 0 {
		fmt.Fprint(w, "runtime vs Table-centric: ")
		for _, a := range algs {
			fmt.Fprintf(w, "%s=%.1fx ", a.String(), float64(total[a.String()])/float64(base))
		}
		fmt.Fprintln(w)
	}
}

func filterArity(results []*QueryResult, q int) []*QueryResult {
	var out []*QueryResult
	for _, r := range results {
		if r.Query.Q() == q {
			out = append(out, r)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func clipStr(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
