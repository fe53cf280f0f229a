package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark reads back.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON() (benchmarkJSON, error) {
	var bj benchmarkJSON
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return bj, err
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		return bj, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bj, nil
}

// checkContract fails the run unless it reports exactly the metrics
// BENCHMARK.json promises for its kind, with their units.
func (r *runResult) checkContract(bj benchmarkJSON) {
	want := bj.EndToEnd
	if r.Trace == 1 {
		want = bj.PerLayer
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			r.fail("metric %s of BENCHMARK.json is not reported", m.Name)
		} else if got.Unit != m.Unit {
			r.fail("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) > len(want) {
		r.fail("%d metrics reported, BENCHMARK.json lists %d", len(r.Metrics), len(want))
	}
}

// readReport loads a report written with -report and returns the
// untraced values of every metric, by workload then metric name.
func readReport(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, 0 for fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareReports prints, for every workload and end-to-end metric of
// BENCHMARK.json, the medians of reports a and b, how much worse b is as
// a share of a, the bound, and a verdict: "unresolved" when either side's
// run-to-run spread is wider than the bound, "worse" when b is worse than
// a by more than the bound, else "ok". It reports whether any row is
// worse.
func compareReports(w io.Writer, a, b string) (anyWorse bool, err error) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		return false, err
	}
	ra, err := readReport(a)
	if err != nil {
		return false, err
	}
	rb, err := readReport(b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-22s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range bj.Workloads {
		for _, m := range bj.EndToEnd {
			va, vb := ra[wl.Name][m.Name], rb[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-22s missing from a report\n", wl.Name, m.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-13s %-22s %12.4f %12.4f %+7.1f%% %6.1f%% %7.1f%% %7.1f%%  %s (n=%d,%d %s)\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict, len(va), len(vb), m.Unit)
		}
	}
	return anyWorse, nil
}
