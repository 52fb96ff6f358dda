package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// report reads the runs' standard output that repeat.sh saved as
// <dir>/set<k>_<workload>_<seed>.out and writes REPEATABILITY.md: per
// (workload, metric) each set's median and quartiles, the spread within
// a set (interquartile distance over median, as the acceptance driver
// computes it), how much worse the second set's median is than the
// first's, and the spread of the same runs' values as the clocks
// measured them, before scaling to the reference machine speed.
func report(dir string, out io.Writer) error {
	// values[set][workload][metric] = one value per run; raw likewise,
	// from the as-measured line.
	var values, raw [2]map[string]map[string][]float64
	for k := range values {
		values[k], raw[k] = map[string]map[string][]float64{}, map[string]map[string][]float64{}
	}
	paths, err := filepath.Glob(filepath.Join(dir, "set[12]_*.out"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".out")
		set := int(name[3] - '1')
		rest := name[5:]
		workload := rest[:strings.LastIndex(rest, "_")]
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: last line: %w", path, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("%s: run was not correct (%d of %d ops failed)", path, res.Failed, res.Attempted)
		}
		measured := map[string]float64{}
		for _, l := range lines {
			if strings.HasPrefix(l, asMeasuredPrefix) {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(l, asMeasuredPrefix)), &measured); err != nil {
					return fmt.Errorf("%s: as-measured line: %w", path, err)
				}
			}
		}
		if values[set][workload] == nil {
			values[set][workload], raw[set][workload] = map[string][]float64{}, map[string][]float64{}
		}
		for m, v := range res.Metrics {
			values[set][workload][m] = append(values[set][workload][m], v.Value)
			raw[set][workload][m] = append(raw[set][workload][m], measured[m])
		}
	}

	fmt.Fprintln(out, "# Repeatability")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Written by `benchmark/repeat.sh`: two sets of runs of the same tree, one")
	fmt.Fprintln(out, "run per seed and workload in each set. `spread` is the interquartile")
	fmt.Fprintln(out, "distance as a share of the median (Python's `statistics.quantiles(v, n=4)`),")
	fmt.Fprintln(out, "`set 2 worse by` the share of set 1's median by which set 2's is worse")
	fmt.Fprintln(out, "(negative: better). A pair FAILs when a spread exceeds the metric's bound")
	fmt.Fprintln(out, "(not judged for `setup_s`) or the sets differ by more than half of it;")
	fmt.Fprintln(out, "`steady` marks spreads below a third of the bound, `pass` the rest.")
	fmt.Fprintln(out, "`as measured` is the spread of the same runs' values before they are scaled")
	fmt.Fprintln(out, "to the reference machine speed (set 1 / set 2): what the bound would have")
	fmt.Fprintln(out, "to cover without the speed index.")
	bad := 0
	for _, w := range workloads {
		n1, n2 := len(values[0][w.Name]["setup_s"]), len(values[1][w.Name]["setup_s"])
		if n1 < 2 || n2 < 2 {
			return fmt.Errorf("%s: need at least two runs per set, have %d and %d", w.Name, n1, n2)
		}
		fmt.Fprintf(out, "\n## %s (%d + %d runs)\n\n", w.Name, n1, n2)
		fmt.Fprintln(out, "| metric | unit | bound | set 1 median [q1, q3] | spread | set 2 median [q1, q3] | spread | set 2 worse by | as measured | verdict |")
		fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|")
		for _, m := range endToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			sa, sb, diff := spread(a), spread(b), worseBy(m.Better, a2, b2)
			verdict := verdictOf(m, sa, sb, diff)
			if verdict == "FAIL" {
				bad++
			}
			fmt.Fprintf(out, "| %s | %s | %.0f%% | %.4g [%.4g, %.4g] | %.1f%% | %.4g [%.4g, %.4g] | %.1f%% | %+.1f%% | %.1f%% / %.1f%% | %s |\n",
				m.Name, m.Unit, 100*m.Bound, a2, a1, a3, 100*sa, b2, b1, b3, 100*sb, 100*diff,
				100*spread(raw[0][w.Name][m.Name]), 100*spread(raw[1][w.Name][m.Name]), verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs outside their bound", bad)
	}
	return nil
}

// verdictOf judges one (metric, workload) pair from its two sets'
// spreads and the share by which the second set's median is worse. The
// acceptance driver refuses a spread above the bound (set-up time's
// excepted); the issue wants two sets of runs of one tree to agree
// within half the bound.
func verdictOf(m metricDef, spread1, spread2, worse float64) string {
	widest := math.Max(spread1, spread2)
	if m.Name == "setup_s" {
		widest = 0
	}
	switch {
	case worse > m.Bound/2, widest > m.Bound:
		return "FAIL"
	case widest > m.Bound/3:
		return "pass"
	}
	return "steady"
}
