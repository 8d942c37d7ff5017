// Command benchmark measures the simulator end to end and layer by
// layer: four named workloads, the end-to-end metrics a user of the
// system sees, and per-layer probes, counters and spans taken from
// outside through the layers' exported API. BENCHMARK.json at the
// repository root declares every workload and metric; README.md in this
// directory explains them.
//
// Usage, from the repository root:
//
//	go run ./benchmark [-seed N] [-seconds S] [-runs N] [-trace 0|1] [-out DIR]
//	go run ./benchmark -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	go run ./benchmark -compare A.json B.json
//
// Without -workload every workload runs, each in a child process of its
// own so that peak memory, heap and GC state belong to it alone, and
// the result set is written to DIR/results.json (results.traced.json
// for the traced run). With -workload that one workload runs in this
// process and the last line of standard output is its result as one
// JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// processStart is when this process began: set-up time of a batch
// workload counts from here.
var processStart = time.Now()

// resultSet is the file a full run writes and -compare reads.
type resultSet struct {
	Provenance provenance          `json:"provenance"`
	Traced     bool                `json:"traced"`
	Runs       map[string][]result `json:"runs"` // per workload, one result per run
}

// options are the command-line flags.
type options struct {
	workload string  // "" runs every workload
	seed     int64   // every generated input derives from it
	seconds  float64 // timed part of one run
	traced   bool
	runs     int    // runs per workload when running every workload
	out      string // built binaries, scratch files, results and spans
	specPath string // BENCHMARK.json
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process and print its result as the last line")
	flag.Int64Var(&o.seed, "seed", 20030701, "every generated input derives from this seed")
	flag.Float64Var(&o.seconds, "seconds", 0, "timed part of one run (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and spans instead of end-to-end metrics")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload, under seeds seed, seed+1, ... (all-workloads mode)")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for built binaries, scratch files, results and spans")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark declaration")
	compare := flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	flag.Parse()
	o.traced = *trace == 1
	if err := run(o, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, compare bool, args []string) error {
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(spec, args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(spec, o)
	}
	if !spec.hasWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runOne(spec, o)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, spec, o.workload, o.traced, []result{res})
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne runs one workload in this process.
func runOne(spec *benchSpec, o options) (result, error) {
	v := make(values)
	t := &tally{}
	budget := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	switch {
	case o.workload == "serve_mix":
		if err := runServe(o.seed, budget, o.out, v, t, tr); err != nil {
			return result{}, err
		}
	case o.traced:
		runBatchTraced(o.workload, o.seed, v, t, tr)
	default:
		runBatch(o.workload, o.seed, budget, v, t)
	}
	if o.traced {
		if err := runProbes(v, o.out); err != nil {
			return result{}, err
		}
		path := filepath.Join(o.out, "spans."+o.workload+".json")
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		printSelfTimes(tr.spans, path)
	}
	res, _ := spec.report(v, o.traced, t.attempted, t.failed, t.problems)
	return res, nil
}

// printSelfTimes prints the traced round's wall by span name.
func printSelfTimes(spans []span, path string) {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Printf("traced round, self time by span (%d spans in %s):\n", len(spans), path)
	for _, n := range names {
		fmt.Printf("  %-28s %10.3f ms\n", n, millis(self[n]))
	}
}

// runAll runs every workload, each run in a child process, and writes
// the result set.
func runAll(spec *benchSpec, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Provenance: collectProvenance(o.seed), Traced: o.traced, Runs: make(map[string][]result)}
	name, trace := "results.json", "0"
	if o.traced {
		name, trace = "results.traced.json", "1"
	}
	bad := 0
	for _, w := range spec.Workloads {
		t0 := time.Now()
		for i := 0; i < o.runs; i++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.out, "-spec", o.specPath, "-trace", trace)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("workload %s: %w", w.Name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("workload %s: result line: %w", w.Name, err)
			}
			if !res.Correct {
				bad++
			}
			set.Runs[w.Name] = append(set.Runs[w.Name], res)
		}
		set.Provenance.WallS[w.Name] = time.Since(t0).Seconds()
		printMetrics(os.Stdout, spec, w.Name, o.traced, set.Runs[w.Name])
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cores, GOMAXPROCS %d, %s, rev %s)\n", path,
		set.Provenance.NProc, set.Provenance.GOMAXPROCS, set.Provenance.GoVersion, set.Provenance.GitRev)
	if bad > 0 {
		return fmt.Errorf("%d runs were not correct", bad)
	}
	return nil
}
