// Command bench is the repository's one benchmark: five named workloads,
// four bounded end-to-end metrics and a traced per-layer ledger, measured
// from outside the program through its public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runSeconds is the timed length of one run when -seconds is not given;
// BENCHMARK.json pins the same value as run_seconds.
const runSeconds = 18

// runLimit ends a run that hangs before the driver's own limit does.
const runLimit = 170 * time.Second

// header makes two result files comparable on sight.
type header struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GOGC       int     `json:"gogc"`
	Params     *spec   `json:"params"`
	Shape      string  `json:"shape"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", runSeconds, "timed length of one run")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written to <out>/trace-<workload>.json")
		scale     = flag.Float64("scale", 1, "shrink state and run length (self-tests use 0.01)")
		calibrate = flag.Int("calibrate", 0, "run this many full sets with seeds seed..seed+n-1 and print their spread as markdown")
		out       = flag.String("out", outDir, "directory for result files, traces and WAL directories")
	)
	flag.Parse()
	outDir = *out
	debug.SetGCPercent(pinnedGOGC)

	if *calibrate > 0 {
		if err := runCalibration(os.Stdout, *calibrate, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if err := runOne(os.Stdout, n, *seed, *seconds, *scale, *trace != 0); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}

// runOne runs one workload, prints every metric by name with its unit,
// writes the result file, and prints the result object as the last line.
// A failed check returns an error instead: no metrics are printed.
func runOne(stdout io.Writer, name string, seed uint64, seconds, scale float64, trace bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	w.scaled(scale)
	if scale < 1 {
		seconds *= scale
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: still running after %v\n", name, runLimit)
		os.Exit(2)
	})
	defer watchdog.Stop()

	run, defs := runService, endToEnd
	switch {
	case trace && w.service():
		run, defs = traceService, perLayer
	case trace:
		run, defs = traceLSRC, perLayer
	case !w.service():
		run = runLSRC
	}
	o, err := run(w, seed, seconds)
	if err != nil {
		return err
	}
	h := header{
		Workload: name, Seed: seed, Seconds: seconds, Scale: scale, Trace: trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GOGC: pinnedGOGC,
		Params: w,
		Shape:  fmt.Sprintf("M=%d shards=%d batch=%d alpha=%v backend=%s placement=%s callers=%d", machineM, shards, batch, alpha, backend, placement, callers),
	}
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: o.vals.report(defs)}

	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v %s GOMAXPROCS=%d nproc=%d GOGC=%d\n",
		name, seed, seconds, trace, h.GoVersion, h.GOMAXPROCS, h.NProc, h.GOGC)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-28s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(stdout, "%-28s %16d of %d attempted\n", "failed", res.Failed, res.Attempted)
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	file := name
	if trace {
		file += "-trace"
		if err := writeTrace(name); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(outDir, file+".json"), struct {
		Header header   `json:"header"`
		Result result   `json:"result"`
		Notes  []string `json:"notes,omitempty"`
	}{h, res, o.notes}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
