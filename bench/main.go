// Command bench is the repo's benchmark: it builds wwt-corpus, wwt-index
// and wwt-serve from the tree, generates a corpus from the seed, and
// measures the real daemon over loopback HTTP under four workloads; a
// separate traced pass replays each workload in process for the per-layer
// numbers. BENCHMARK.json at the root of the repo describes it, and
// README.md in this directory explains every workload and metric.
//
//	go run ./bench -seed 2012                                   # all four workloads, untraced then traced
//	go run ./bench -workload hot-open -seed 7 -seconds 15 -trace 0
//	go run ./bench -seed 2012 -report bench/out/a.jsonl         # also append every run to a report
//	go run ./bench -compare bench/out/a.jsonl bench/out/b.jsonl
//
// Run it from the root of the repo. Each run prints its numbers and ends
// with one JSON line; the command exits non-zero if a correctness check
// failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Seeds: the default, used while the benchmark was written, and a
// held-out one that a claim must also hold on.
const (
	defaultSeed = 2012
	heldOutSeed = 1729
)

func main() {
	seed := flag.Int64("seed", defaultSeed, "seed of every generated input: corpus, query mix, arrivals, held-out pages")
	name := flag.String("workload", "", "workload to run: hot-closed, wide-closed, hot-open or ingest-mixed (default: all four, untraced and traced)")
	seconds := flag.Int("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end run against the daemon, untraced; 1: traced in-process pass for the per-layer metrics")
	report := flag.String("report", "", "append each run's result to this file, one JSON object per line")
	compare := flag.Bool("compare", false, "compare two reports: bench -compare A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.jsonl B.jsonl"))
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	bj, err := readBenchmarkJSON()
	if err != nil {
		fatal(fmt.Errorf("run from the root of the repo: %w", err))
	}

	type job struct {
		spec  workloadSpec
		trace int
	}
	var jobs []job
	if *name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, 0}, job{w, 1})
		}
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		jobs = []job{{w, *trace}}
	}

	wallStart := time.Now()
	fmt.Printf("bench: seed=%d commit=%s %s GOMAXPROCS=%d nproc=%d window=%ds scale=%d\n",
		*seed, commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *seconds, corpusScale)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	buildT, err := buildBinaries()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("built wwt-corpus, wwt-index, wwt-serve in %.1fs\n", buildT.Seconds())

	failed := false
	for _, j := range jobs {
		in, err := makeInputs(j.spec, *seed, time.Duration(*seconds)*time.Second, j.trace == 1)
		if err != nil {
			fatal(err)
		}
		var res *runResult
		if j.trace == 1 {
			res, err = runTraced(in)
		} else {
			res, err = runE2E(in)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", j.spec.Name, err))
		}
		res.checkContract(bj)
		res.print()
		if *report != "" {
			if err := appendReport(*report, res); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("total wall time %.1fs\n", time.Since(wallStart).Seconds())
		// The last line of a run: the contract of BENCHMARK.json.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// print writes a run's numbers for a reader: every metric by name with
// its unit, then the diagnostics, then any failed check.
func (r *runResult) print() {
	fmt.Printf("== %s seed=%d trace=%d: attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, block := range []map[string]metric{r.Metrics, r.Info} {
		names := make([]string, 0, len(block))
		for name := range block {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Printf("  %-40s %14.4f %s\n", name, block[name].Value, block[name].Unit)
		}
		fmt.Println("  --")
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED CHECK: %s\n", f)
	}
}

func appendReport(path string, r *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit names the tree being measured; a checkout that is not a git
// repository has no name.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cleanups are undone on every exit path: by the deferred calls of a run
// that returns, and by the signal handler when the benchmark is
// interrupted. Each registered function must be safe to call twice.
var cleanups struct {
	sync.Mutex
	once sync.Once
	fns  []func()
}

// onExit registers fn to run if the benchmark is interrupted.
func onExit(fn func()) {
	cleanups.once.Do(func() {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sigc
			runCleanups()
			os.Exit(130)
		}()
	})
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.Unlock()
}

func runCleanups() {
	cleanups.Lock()
	defer cleanups.Unlock()
	for i := len(cleanups.fns) - 1; i >= 0; i-- {
		cleanups.fns[i]()
	}
}

// fatal reports an error that stops the benchmark, without a result
// line, after stopping whatever is still running.
func fatal(err error) {
	runCleanups()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
