// Command gvfs-bench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated wide-area testbed and prints the
// series each figure plots.
//
// Usage:
//
//	gvfs-bench [-exp all|fig4|fig5|fig6|fig7|fig8|lanov|ablate|meta|hotpath|slo|restart]
//	           [-scale N] [-q] [-metrics-out file] [-json-out file] [-trace-out file]
//
// Scale 1 is the paper's full workload size; larger values shrink the
// workloads proportionally for quick runs. With -metrics-out, every
// deployment dumps its unified metrics registry (Prometheus text format) to
// the named file, and the run fails if the dump is empty or malformed. With
// -trace-out, trace-capable experiments (slo) write a JSON span+metrics dump
// that cmd/gvfs-trace analyzes offline.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig4, fig5, fig6, fig7, fig8, lanov, ablate, meta, hotpath, slo, restart")
	scale := flag.Int("scale", 1, "divide workload sizes by this factor (1 = paper scale)")
	quiet := flag.Bool("q", false, "suppress per-setup progress lines")
	metricsOut := flag.String("metrics-out", "", "write per-deployment metrics dumps to this file (- for stderr)")
	jsonOut := flag.String("json-out", "", "write the machine-readable result of JSON-capable experiments (meta, hotpath, slo, restart) to this file")
	traceOut := flag.String("trace-out", "", "write a JSON trace dump from trace-capable experiments (slo) to this file, for gvfs-trace")
	flag.Parse()

	if err := run(os.Stdout, *exp, *scale, *quiet, *metricsOut, *jsonOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "gvfs-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, scale int, quiet bool, metricsOut, jsonOut, traceOut string) error {
	opt := bench.Options{Scale: scale}
	if !quiet {
		opt.Progress = os.Stderr
	}
	var metricsBuf bytes.Buffer
	if metricsOut != "" {
		opt.MetricsOut = &metricsBuf
	}
	var traceBuf bytes.Buffer
	if traceOut != "" {
		opt.TraceOut = &traceBuf
	}
	type experiment struct {
		name string
		run  func() error
	}
	experiments := []experiment{
		{"fig4", func() error {
			r, err := bench.RunFig4(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			return nil
		}},
		{"fig5", func() error {
			r, err := bench.RunFig5(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			return nil
		}},
		{"fig6", func() error {
			r, err := bench.RunFig6(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			return nil
		}},
		{"fig7", func() error {
			r, err := bench.RunFig7(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			return nil
		}},
		{"fig8", func() error {
			r, err := bench.RunFig8(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			return nil
		}},
		{"lanov", func() error {
			r, err := bench.RunLANOverhead(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			return nil
		}},
		{"ablate", func() error {
			rs, err := bench.RunAblations(opt)
			if err != nil {
				return err
			}
			bench.RenderAblations(w, rs)
			return nil
		}},
		{"meta", func() error {
			r, err := bench.RunMetadata(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			if jsonOut != "" {
				f, err := os.Create(jsonOut)
				if err != nil {
					return fmt.Errorf("create %s: %w", jsonOut, err)
				}
				defer f.Close()
				if err := r.WriteJSON(f); err != nil {
					return fmt.Errorf("write %s: %w", jsonOut, err)
				}
				fmt.Fprintf(w, "json: %s\n", jsonOut)
			}
			return nil
		}},
		{"hotpath", func() error {
			r, err := bench.RunHotpath(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			if jsonOut != "" && exp == "hotpath" {
				f, err := os.Create(jsonOut)
				if err != nil {
					return fmt.Errorf("create %s: %w", jsonOut, err)
				}
				defer f.Close()
				if err := r.WriteJSON(f); err != nil {
					return fmt.Errorf("write %s: %w", jsonOut, err)
				}
				fmt.Fprintf(w, "json: %s\n", jsonOut)
			}
			return nil
		}},
		{"slo", func() error {
			r, err := bench.RunSLO(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			if jsonOut != "" && exp == "slo" {
				f, err := os.Create(jsonOut)
				if err != nil {
					return fmt.Errorf("create %s: %w", jsonOut, err)
				}
				defer f.Close()
				if err := r.WriteJSON(f); err != nil {
					return fmt.Errorf("write %s: %w", jsonOut, err)
				}
				fmt.Fprintf(w, "json: %s\n", jsonOut)
			}
			return nil
		}},
		{"restart", func() error {
			r, err := bench.RunRestart(opt)
			if err != nil {
				return err
			}
			r.Render(w)
			if jsonOut != "" && exp == "restart" {
				f, err := os.Create(jsonOut)
				if err != nil {
					return fmt.Errorf("create %s: %w", jsonOut, err)
				}
				defer f.Close()
				if err := r.WriteJSON(f); err != nil {
					return fmt.Errorf("write %s: %w", jsonOut, err)
				}
				fmt.Fprintf(w, "json: %s\n", jsonOut)
			}
			return nil
		}},
	}

	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		fmt.Fprintf(w, "==== %s ====\n", e.name)
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if metricsOut != "" {
		// Self-validate before writing: an empty or malformed dump means the
		// observability spine is broken, which is a failure, not a shrug.
		samples, err := obs.ParseProm(bytes.NewReader(metricsBuf.Bytes()))
		if err != nil {
			return fmt.Errorf("metrics dump malformed: %w", err)
		}
		if samples == 0 {
			return fmt.Errorf("metrics dump is empty")
		}
		if metricsOut == "-" {
			_, err = os.Stderr.Write(metricsBuf.Bytes())
		} else {
			err = os.WriteFile(metricsOut, metricsBuf.Bytes(), 0o644)
		}
		if err != nil {
			return fmt.Errorf("write metrics dump: %w", err)
		}
		fmt.Fprintf(w, "metrics: %d samples -> %s\n", samples, metricsOut)
	}
	if traceOut != "" {
		if traceBuf.Len() == 0 {
			return fmt.Errorf("trace dump requested but experiment %q produced none (only slo writes traces)", exp)
		}
		// Round-trip the dump before writing so gvfs-trace is guaranteed to
		// be able to load what we hand it.
		d, err := obs.ReadTraceDump(bytes.NewReader(traceBuf.Bytes()))
		if err != nil {
			return fmt.Errorf("trace dump malformed: %w", err)
		}
		if err := os.WriteFile(traceOut, traceBuf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write trace dump: %w", err)
		}
		fmt.Fprintf(w, "trace: %d spans (%d dropped) -> %s\n", len(d.Spans), d.Dropped, traceOut)
	}
	return nil
}
