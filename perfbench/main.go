// Command perfbench is the repository benchmark. It runs one named workload
// against the GVFS stack, checks every reply it gets, and prints each
// end-to-end and per-layer metric by name and unit. The last line of its
// standard output is one JSON object holding the metrics BENCHMARK.json
// lists for the mode: the end_to_end ones for an untraced run, the
// per_layer ones for a traced run (-trace 1).
//
// Workloads:
//
//	tcp-warm     real-TCP daemon chain, warm 16 MiB tree, reads and metadata
//	tcp-cold-rw  real-TCP daemon chain, 64 MiB tree over an 8 MiB cache,
//	             write-back with the disk cache on
//	wan-shared   gvfs facade on the simulated 40 ms / 4 Mbps WAN, polling
//	             and delegation sessions with two sharing clients each
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the metric and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// options are the command-line inputs every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
}

// metric is one reported number. Samples is the sample count behind a
// percentile and zero otherwise; Base names the denominator of a per-op or
// ratio metric.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
	Base    string
}

// result is everything one run reports.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	// Problems describes the first correctness failures, for the report.
	Problems []string
	Metrics  []metric
	Env      []string
}

func (r *result) add(m metric) { r.Metrics = append(r.Metrics, m) }

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*result, error){
	"tcp-warm":    func(o options) (*result, error) { return runTCP(tcpWarm, o) },
	"tcp-cold-rw": func(o options) (*result, error) { return runTCP(tcpColdRW, o) },
	"wan-shared":  runWAN,
}

func main() {
	workload := flag.String("workload", "", "workload to run: tcp-warm, tcp-cold-rw or wan-shared")
	seed := flag.Uint64("seed", 1, "seed every generated input and op draw derives from")
	seconds := flag.Float64("seconds", 10, "wall seconds the measured phase lasts")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	outDir := flag.String("out", ".perfbench", "directory for disk-cache files and the span dump")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics of the result line")
	flag.Parse()
	os.Exit(run(os.Stdout, *workload, *spec, options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir,
	}))
}

// run executes one workload and prints its report; it returns the exit code.
func run(w io.Writer, workload, specPath string, o options) int {
	fn, ok := workloads[workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", workload)
		return 2
	}
	names, err := resultNames(specPath, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	printReport(w, res)
	line, err := resultLine(res, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	fmt.Fprintln(w, line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// resultNames reads the metric names the result line carries from the
// benchmark definition: end_to_end for untraced runs, per_layer for traced.
func resultNames(path string, traced bool) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// resultLine renders the closing JSON object with exactly the named metrics.
func resultLine(res *result, names []string) (string, error) {
	byName := make(map[string]metric, len(res.Metrics))
	for _, m := range res.Metrics {
		byName[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]value, len(names))}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return "", fmt.Errorf("metric %q is not measured by this workload", n)
		}
		out.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s\n", res.Workload)
	for _, e := range res.Env {
		fmt.Fprintf(w, "env %s\n", e)
	}
	ms := append([]metric(nil), res.Metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		var extra []string
		if m.Samples > 0 {
			extra = append(extra, fmt.Sprintf("n=%d", m.Samples))
		}
		if m.Base != "" {
			extra = append(extra, "base: "+m.Base)
		}
		suffix := ""
		if len(extra) > 0 {
			suffix = "  (" + strings.Join(extra, ", ") + ")"
		}
		fmt.Fprintf(w, "metric %-40s %16.6f %s%s\n", m.Name, m.Value, m.Unit, suffix)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
}
