package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// column collects one metric's value from every run of a workload.
func column(runs []result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printMetrics prints every metric of one workload by name with its
// unit: the median over the runs, and the quartile spread when there is
// more than one run.
func printMetrics(w io.Writer, spec *benchSpec, workload string, traced bool, runs []result) {
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	attempted, failed, correct := 0, 0, true
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
		correct = correct && r.Correct
	}
	fmt.Fprintf(w, "%s: %d runs, %d operations, %d failed, correct %v\n", workload, len(runs), attempted, failed, correct)
	for _, d := range defs {
		xs := column(runs, d.Name)
		fmt.Fprintf(w, "  %-40s %16.6g %-6s", d.Name, median(xs), d.Unit)
		if len(xs) > 1 {
			fmt.Fprintf(w, " spread %.3f", quartileSpread(xs))
		}
		fmt.Fprintln(w)
	}
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// classify compares a metric's runs on two sides. worse is how much
// worse b's median is than a's, as a share of a's (negative: better).
// Beyond the bound it is a regression. Within the bound it is ok,
// unless either side's own run-to-run spread exceeds the bound: then
// "unchanged" cannot be told from noise and the verdict is unresolved —
// except when every run of b reads better than every run of a.
func classify(a, b []float64, better string, bound float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	lower := better == "lower"
	if ma != 0 {
		worse = (mb - ma) / ma
		if !lower {
			worse = -worse
		}
	}
	if worse > bound {
		return worse, verdictRegressed
	}
	if quartileSpread(a) > bound || quartileSpread(b) > bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if !lower {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return worse, verdictUnresolved
		}
	}
	return worse, verdictOK
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints one row per workload × metric and returns the
// number of regressions. Untraced sets are held to the end-to-end
// bounds. Traced sets have no bounds: their rows show both values, and
// a simulated count or hash that moved is marked, because a change that
// only speeds the simulator up must leave every one of them identical.
func compareSets(w io.Writer, spec *benchSpec, a, b *resultSet) (regressions int, err error) {
	if a.Traced != b.Traced {
		return 0, fmt.Errorf("one set is traced and the other is not")
	}
	defs := spec.EndToEnd
	if a.Traced {
		defs = spec.PerLayer
	}
	fmt.Fprintf(w, "%-14s %-40s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.Runs[wl.Name], b.Runs[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range defs {
			xa, xb := column(ra, d.Name), column(rb, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse, verdict := classify(xa, xb, d.Better, d.Bound)
			bound := fmt.Sprintf("%.2f", d.Bound)
			if a.Traced {
				bound, verdict = "-", "-"
				if (d.Unit == "count" || d.Unit == "hash") && median(xa) != median(xb) {
					verdict = "differs"
				}
			}
			if verdict == verdictRegressed {
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-40s %14.6g %14.6g %+8.3f %6s  %s\n", wl.Name, d.Name, median(xa), median(xb), worse, bound, verdict)
		}
	}
	return regressions, nil
}

func compareFiles(spec *benchSpec, pa, pb string) error {
	a, err := readSet(pa)
	if err != nil {
		return err
	}
	b, err := readSet(pb)
	if err != nil {
		return err
	}
	n, err := compareSets(os.Stdout, spec, a, b)
	if err != nil {
		return err
	}
	if n > 0 {
		return fmt.Errorf("%d regressions", n)
	}
	return nil
}
