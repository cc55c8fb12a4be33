package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json calibration checks itself
// against.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method): the
// rule the benchmark's bounds are judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// runCalibration runs sets full sets of this build, every run in a fresh
// process with another seed as the driver runs it, and prints per (metric,
// workload) the median, quartiles and relative spread. It fails when an end-to-end
// spread exceeds the metric's bound in BENCHMARK.json.
func runCalibration(out io.Writer, sets int, seed uint64, seconds float64) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// samples[trace][workload][metric] holds one value per set.
	samples := [2]map[string]map[string][]float64{{}, {}}
	// Workload by workload, its runs back to back, as the driver judges
	// it: the host's speed drifts over the half hour all of this takes.
	for _, w := range workloads {
		for trace := 0; trace < 2; trace++ {
			for set := 0; set < sets; set++ {
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatUint(seed+uint64(set), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", outDir)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("set %d %s trace=%d: %w", set, w.Name, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("set %d %s trace=%d: last line: %w", set, w.Name, trace, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("set %d %s trace=%d: correct=%v failed=%d", set, w.Name, trace, res.Correct, res.Failed)
				}
				if samples[trace][w.Name] == nil {
					samples[trace][w.Name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					samples[trace][w.Name][name] = append(samples[trace][w.Name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "calibrate: %s trace=%d set %d/%d done\n", w.Name, trace, set+1, sets)
			}
		}
	}

	fmt.Fprintf(out, "# Calibration\n\n%d full sets of one build, seeds %d..%d, %g s per run, %s, GOMAXPROCS=%d, GOGC=%d.\n",
		sets, seed, seed+uint64(sets)-1, seconds, runtime.Version(), runtime.GOMAXPROCS(0), pinnedGOGC)
	fmt.Fprintf(out, "Spread is (Q3 − Q1) / median with the quartiles of Python's `statistics.quantiles(values, n=4)`.\n\n")
	fmt.Fprintf(out, "## End-to-end metrics\n\n| workload | metric | unit | median | Q1 | Q3 | spread | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	var over []string
	for _, w := range workloads {
		for _, d := range man.EndToEnd {
			q1, q2, q3 := quartiles(samples[0][w.Name][d.Name])
			spread := (q3 - q1) / q2
			verdict := "ok"
			if d.Name == "setup_s" {
				verdict = "not judged by spread"
			} else if spread > d.Bound {
				verdict = "OVER"
				over = append(over, fmt.Sprintf("%s/%s spread %.3f > bound %.2f", w.Name, d.Name, spread, d.Bound))
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.5g | %.5g | %.5g | %.3f | %.2f | %s |\n", w.Name, d.Name, d.Unit, q2, q1, q3, spread, d.Bound, verdict)
		}
	}
	fmt.Fprintf(out, "\n## Per-layer metrics (traced runs)\n\nmedian (spread); a metric of a layer the workload does not reach reads 0.\n\n| metric | unit |")
	for _, w := range workloads {
		fmt.Fprintf(out, " %s |", w.Name)
	}
	fmt.Fprintf(out, "\n|---|---|%s\n", strings.Repeat("---|", len(workloads)))
	for _, d := range perLayer {
		fmt.Fprintf(out, "| %s | %s |", d.Name, d.Unit)
		for _, w := range workloads {
			q1, q2, q3 := quartiles(samples[1][w.Name][d.Name])
			if q2 == 0 {
				fmt.Fprintf(out, " 0 |")
				continue
			}
			fmt.Fprintf(out, " %.5g (%.2f) |", q2, (q3-q1)/q2)
		}
		fmt.Fprintln(out)
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, "; "))
	}
	return nil
}
