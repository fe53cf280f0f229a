// Command wwt answers column-keyword queries against an index directory
// (from wwt-index), including every segment a running wwt-serve has
// ingested into it:
//
//	wwt -idx ./idx "name of explorers | nationality | areas explored"
//	wwt -idx ./idx -batch queries.txt -workers 8
//
// Column keyword sets are separated by '|'. In batch mode each
// non-empty, non-comment line of the query file is one query; the batch
// runs on a bounded worker pool and prints per-query summaries plus the
// aggregate stage split and realized throughput. Answers use the paper's
// table-centric inference (§4.2); flags control output size.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"wwt"
	"wwt/internal/core"
)

func main() {
	idxDir := flag.String("idx", "idx", "index directory (from wwt-index)")
	maxRows := flag.Int("rows", 20, "max answer rows to print")
	showSources := flag.Bool("sources", false, "print contributing source tables")
	explain := flag.Bool("explain", false, "print per-table mapping rationale")
	batchFile := flag.String("batch", "", "file of queries, one per line ('-' = stdin); answers them as one batch")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	single := *batchFile == ""
	if (single && flag.NArg() != 1) || (!single && flag.NArg() != 0) {
		fmt.Fprintln(os.Stderr, `usage: wwt -idx DIR "col1 keywords | col2 keywords | ..."
       wwt -idx DIR -batch FILE [-workers N]`)
		os.Exit(2)
	}
	// Validate the single query up front: a content-free query must fail
	// before the (potentially large) index is loaded.
	var cols []string
	if single {
		if cols = parseColumns(flag.Arg(0)); len(cols) == 0 {
			fmt.Fprintln(os.Stderr, "wwt: empty query")
			os.Exit(2)
		}
	}

	eng, err := wwt.OpenLive(*idxDir, nil)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	if !single {
		runBatch(eng, *batchFile, *workers)
		return
	}

	res, err := eng.Answer(wwt.Query{Columns: cols})
	if err != nil {
		fatal(err)
	}

	relevant := 0
	for ti := range res.Tables {
		if res.Labeling.Relevant(ti) {
			relevant++
		}
	}
	fmt.Printf("candidates: %d tables (probe2 used: %v), relevant: %d, answer rows: %d\n",
		len(res.Tables), res.UsedProbe2, relevant, len(res.Answer.Rows))
	fmt.Printf("timings: probe %.1fms, read %.1fms, column-map %.1fms, infer %.1fms, consolidate %.1fms\n\n",
		float64((res.Timings.Probe1+res.Timings.Probe2).Microseconds())/1000,
		float64((res.Timings.Read1+res.Timings.Read2).Microseconds())/1000,
		float64(res.Timings.ColumnMap.Microseconds())/1000,
		float64(res.Timings.Infer.Microseconds())/1000,
		float64(res.Timings.Consolidate.Microseconds())/1000)

	printRow(cols, "support")
	fmt.Println(strings.Repeat("-", 24*len(cols)+8))
	for i, row := range res.Answer.Rows {
		if i >= *maxRows {
			fmt.Printf("... and %d more rows\n", len(res.Answer.Rows)-*maxRows)
			break
		}
		printRow(row.Cells, fmt.Sprintf("%d", row.Support))
	}
	if *showSources {
		fmt.Println("\nsources:")
		for _, s := range res.Answer.Sources {
			fmt.Println(" ", s)
		}
	}
	if *explain {
		fmt.Println("\ncolumn mapping rationale:")
		// The pipeline's model stays in its query's arena; a cacheless
		// build over the same candidates gives the same model.
		m := (&core.Builder{Params: eng.Opts.Params, Stats: eng.Searcher(), PMI: eng.Searcher()}).Build(cols, res.Tables)
		for _, e := range m.ExplainAll(res.Labeling) {
			fmt.Print(e)
		}
	}
}

// parseColumns splits a '|'-separated query line into column keyword sets.
func parseColumns(line string) []string {
	var cols []string
	for _, c := range strings.Split(line, "|") {
		if c = strings.TrimSpace(c); c != "" {
			cols = append(cols, c)
		}
	}
	return cols
}

// runBatch answers every query in the file as one AnswerBatchCtx call and
// prints per-query summaries plus the aggregate stage split and throughput.
func runBatch(eng *wwt.Engine, path string, workers int) {
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	var queries []wwt.Query
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024) // wide queries exceed the 64KB default
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		queries = append(queries, wwt.Query{Columns: parseColumns(line)})
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(queries) == 0 {
		fatal(fmt.Errorf("no queries in %s", path))
	}

	br := eng.AnswerBatchCtx(context.Background(), queries, workers, 0)
	fmt.Printf("%-50s %10s %8s %7s %9s\n", "query", "candidates", "relevant", "rows", "total(ms)")
	for i, res := range br.Results {
		name := clip(lines[i], 50)
		if err := br.Errs[i]; err != nil {
			fmt.Printf("%-50s error: %v\n", name, err)
			continue
		}
		relevant := 0
		for ti := range res.Tables {
			if res.Labeling.Relevant(ti) {
				relevant++
			}
		}
		fmt.Printf("%-50s %10d %8d %7d %9.2f\n", name,
			len(res.Tables), relevant, len(res.Answer.Rows),
			float64(res.Timings.Total().Microseconds())/1000)
	}
	t := br.Timings
	fmt.Printf("\nbatch: %d queries (%d failed) on %d workers in %.1fms — %.1f answered/s (%.1f total/s)\n",
		t.Queries, t.Failed, t.Workers, float64(t.Wall.Microseconds())/1000, t.QPS(), t.TotalQPS())
	fmt.Printf("stage totals: probe %.1fms, read %.1fms, column-map %.1fms, infer %.1fms, consolidate %.1fms (parallelism %.1fx)\n",
		float64((t.Stages.Probe1+t.Stages.Probe2).Microseconds())/1000,
		float64((t.Stages.Read1+t.Stages.Read2).Microseconds())/1000,
		float64(t.Stages.ColumnMap.Microseconds())/1000,
		float64(t.Stages.Infer.Microseconds())/1000,
		float64(t.Stages.Consolidate.Microseconds())/1000,
		float64(t.Stages.Total())/float64(t.Wall))
}

// clip truncates s to at most n runes (not bytes, so multi-byte cells
// never split mid-rune), marking the cut with an ellipsis.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}

func printRow(cells []string, last string) {
	for _, c := range cells {
		fmt.Printf("%-24s", clip(c, 22))
	}
	fmt.Printf("%8s\n", last)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wwt:", err)
	os.Exit(1)
}
