// Command mdwbench runs the benchmark of BENCHMARK.json.
//
//	mdwbench -workload portal_read|adhoc_query|release_cycle -seed N -seconds S -trace 0|1
//
// runs one workload against a fresh mdwd and prints, as the last line of
// standard output, one JSON object with the run's correctness, its
// attempted and failed operations, and the end-to-end metrics (-trace 0)
// or the per-layer metrics (-trace 1). Progress and the per-class table
// go to standard error.
//
//	mdwbench -workload all [-trace 1] [-check]
//
// runs every workload (with -trace 1 also traced), prints all metrics
// and appends one row to trajectory.jsonl in the work directory. -check
// runs two such sets and fails if any end-to-end metric differs between
// them by more than its bound in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"mdw/bench"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(bench.Workloads, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the request sequences")
	seconds := flag.Int("seconds", 15, "length of the timed phase (release_cycle: one cycle per 5 s)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.json")
	mdwd := flag.String("mdwd", ".bench_build/mdwd", "mdwd binary under test")
	work := flag.String("out", ".bench_build/out", "directory for generated data, server logs, traces and trajectory.jsonl")
	golden := flag.String("golden", "bench/golden", "directory of the committed reply digests")
	update := flag.Bool("update-golden", false, "record the replies of this run as the golden digests")
	check := flag.Bool("check", false, "with -workload all: run two sets and compare them against the bounds")
	spec := flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -check applies")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "mdwbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	serverLog := filepath.Join(*work, "mdwd.log")
	if err := os.WriteFile(serverLog, nil, 0o644); err != nil { // one invocation's servers per log
		fatal(err)
	}
	cfg := bench.Config{
		Seed: *seed, Seconds: *seconds, Scale: bench.ScalePaper, Work: *work,
		GoldenDir: *golden, UpdateGolden: *update,
		Host: bench.ProcHost{Mdwd: *mdwd, Log: serverLog},
	}
	ctx := context.Background()
	if *workload != "all" {
		cfg.Workload, cfg.Trace = *workload, *trace == 1
		res, err := bench.Run(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		describe(res)
		printContract(res, cfg.Trace)
		return
	}

	first, err := runSet(ctx, cfg, *trace == 1)
	if err != nil {
		fatal(err)
	}
	if !*check {
		return
	}
	second, err := runSet(ctx, cfg, *trace == 1)
	if err != nil {
		fatal(err)
	}
	bounds, err := readBounds(*spec)
	if err != nil {
		fatal(err)
	}
	bad := compare(bounds, first, second)
	if len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "mdwbench: the sets disagree:")
		for _, line := range bad {
			fmt.Fprintln(os.Stderr, "  "+line)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mdwbench: the sets agree within the bounds of", *spec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdwbench:", err)
	os.Exit(1)
}

// printContract prints the result line BENCHMARK.json's driver reads.
func printContract(res *bench.Result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics, from := map[string]value{}, res.EndToEnd
	list := bench.EndToEnd
	if traced {
		list, from = bench.PerLayer, res.PerLayer
	}
	for _, m := range list {
		metrics[m.Name] = value{from[m.Name], m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// describe prints every metric of the run by name, with its unit.
func describe(res *bench.Result) {
	w := os.Stderr
	fmt.Fprintf(w, "\n%s  seed %d  ops %d attempted, %d failed  correct=%v\n", res.Workload, res.Seed, res.Attempted, res.Failed, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	for _, m := range bench.EndToEnd {
		if v, ok := res.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %12.4f %s\n", m.Name, v, m.Unit)
		}
	}
	for _, m := range bench.PerLayer {
		if v := res.PerLayer[m.Name]; v != 0 {
			fmt.Fprintf(w, "  %-34s %12.4f %s\n", m.Name, v, m.Unit)
		}
	}
	if v := res.PerLayer["ladder_closure_pct"]; v > 15 {
		fmt.Fprintf(w, "  warning: ladder_closure_pct %.1f > 15: some class's ladder does not add up to its live median; see trace-%s.json\n", v, res.Workload)
	}
	var classes []string
	for c, n := range res.Samples {
		if n > 0 {
			classes = append(classes, fmt.Sprintf("%s=%d", c, n))
		}
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "  samples: %s\n  request sequence %s\n  golden digest    %s\n", strings.Join(classes, " "), res.SequenceHash, res.Golden)
}

// runSet runs every workload once, twice when traced (the timed run
// stays untraced), and appends the set to the trajectory.
func runSet(ctx context.Context, cfg bench.Config, traced bool) (map[string]*bench.Result, error) {
	set := map[string]*bench.Result{}
	for _, w := range bench.Workloads {
		cfg.Workload, cfg.Trace = w, false
		res, err := bench.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if traced {
			cfg.Trace = true
			layers, err := bench.Run(ctx, cfg)
			if err != nil {
				return nil, err
			}
			res.PerLayer = layers.PerLayer
			res.Correct = res.Correct && layers.Correct
			res.Errors = append(res.Errors, layers.Errors...)
		}
		describe(res)
		set[w] = res
		if !res.Correct {
			return nil, fmt.Errorf("%s: not correct", w)
		}
	}
	row := map[string]any{
		"commit": commit(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": cfg.Seed, "seconds": cfg.Seconds, "scale": cfg.Scale, "workloads": set,
	}
	line, err := json.Marshal(row)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(cfg.Work, "trajectory.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return set, f.Close()
}

// commit names the commit under test where git knows it.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// readBounds returns the bound of every end-to-end metric of the
// benchmark definition.
func readBounds(specPath string) (map[string]float64, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// compare lists, by workload and metric, the end-to-end metrics on which
// the two sets differ by more than the metric's bound.
func compare(bounds map[string]float64, a, b map[string]*bench.Result) map[string]string {
	bad := map[string]string{}
	for _, w := range bench.Workloads {
		for name, bound := range bounds {
			x, y := a[w].EndToEnd[name], b[w].EndToEnd[name]
			lo, hi := min(x, y), max(x, y)
			if lo <= 0 || (hi-lo)/lo > bound {
				bad[w+" "+name] = fmt.Sprintf("%s %s: %.4f vs %.4f, bound %.0f%%", w, name, x, y, 100*bound)
			}
		}
	}
	return bad
}
