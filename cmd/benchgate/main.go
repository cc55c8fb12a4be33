// Command benchgate judges a change against its parent commit by the one
// rule the repository's benchmark is read by:
//
//	benchgate -parent out/parent -change out/change [-claim metric@workload]
//
// Each directory holds result files as bench/ writes them, one sub-directory
// per pair of runs (<dir>/<pair>/<workload>.json; ci/drills.sh bench makes
// them). Workloads, end-to-end metrics, directions and bounds come from
// BENCHMARK.json in the working directory; none is named here. A metric
// on a workload is REGRESSED when the change's median is worse than the
// parent's by more than the bound; unresolved when the parent's own
// inter-quartile spread is wider than the bound and not every run of the
// change reads better than every run of the parent; else held. Exit 1 on a
// regression, a larger failed share, a run with correct:false, a workload or
// metric missing on either side, or a claim not met: nine tenths of at least
// ten pairs won, ties counting for neither side, and medians further apart
// than the parent's inter-quartile spread. Per-layer metrics are printed
// where both sides hold traced runs (<workload>-trace.json), never gated.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// The manifest's keys match these fields without tags, case aside.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// pairsOf lists a side's pair directories in name order (os.ReadDir sorts),
// which is run order when the names are zero-padded numbers.
func pairsOf(dir string) (pairs []string, err error) {
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		if e.IsDir() {
			pairs = append(pairs, e.Name())
		}
	}
	return pairs, err
}

// runs is one commit's runs of one workload: each metric's value pair by
// pair (shorter than the pairs if a run lacks it), the share of operations
// that failed, and whether every run reported correct:true.
type runs struct {
	vals      map[string][]float64
	failShare float64
	correct   bool
}

// load reads one file name out of every pair directory of a side.
func load(dir string, pairs []string, file string) (runs, error) {
	rs := runs{vals: map[string][]float64{}, correct: true}
	var failed, attempted int64
	for _, p := range pairs {
		var doc struct {
			Result struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct{ Value float64 }
			}
		}
		if err := readJSON(filepath.Join(dir, p, file), &doc); err != nil {
			return rs, err
		}
		for name, m := range doc.Result.Metrics {
			rs.vals[name] = append(rs.vals[name], m.Value)
		}
		failed += doc.Result.Failed
		attempted += doc.Result.Attempted
		rs.correct = rs.correct && doc.Result.Correct
	}
	rs.failShare = float64(failed) / float64(attempted)
	return rs, nil
}

// quartiles returns the quartiles of xs by the exclusive method (Python's
// statistics.quantiles(xs, n=4)), the one bench/ and the driver use.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k float64) float64 {
		// 0-based position k(n+1)/4 − 1, clamped to the ends.
		pos := math.Min(math.Max(k*float64(len(s)+1)/4-1, 0), float64(len(s)-1))
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[min(lo+1, len(s)-1)]-s[lo])
	}
	return at(1), at(2), at(3)
}

// num prints a value to four figures, thousands as k.
func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return fmt.Sprintf("%.0fk", v/1e3)
	}
	return fmt.Sprintf("%.4g", v)
}

// judge applies the rule to one metric's runs, parent[i] and change[i]
// being the pair named pairs[i], writes the metric's line of the table, and
// returns the verdict and whether a claim on the metric would be met.
func judge(w io.Writer, d metricDef, pairs []string, parent, change []float64) (verdict string, claimMet bool) {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	better := func(a, b float64) bool { return sign*a < sign*b }
	fmt.Fprintf(w, "`%s` (%s)", d.Name, d.Unit)
	wins, losses, allBetter := 0, 0, true
	for i := range parent {
		fmt.Fprintf(w, " %s: %s→%s;", pairs[i], num(parent[i]), num(change[i]))
		if better(change[i], parent[i]) {
			wins++
		} else if better(parent[i], change[i]) {
			losses++
		}
		for _, p := range parent {
			allBetter = allBetter && better(change[i], p)
		}
	}
	p1, pm, p3 := quartiles(parent)
	c1, cm, c3 := quartiles(change)
	// A parent median of zero makes rel ±Inf or NaN; NaN compares false
	// and the metric holds, which is right for 0 → 0.
	rel := (cm - pm) / math.Abs(pm)
	verdict = "held"
	switch {
	case sign*rel > d.Bound:
		verdict = "REGRESSED"
	case (p3-p1)/math.Abs(pm) > d.Bound && !allBetter:
		verdict = "unresolved"
	}
	fmt.Fprintf(w, " — median %s [%s–%s] → %s [%s–%s] (%+.1f %%, better in %d/%d, %d ties; bound %g %%) %s\n",
		num(pm), num(p1), num(p3), num(cm), num(c1), num(c3), 100*rel,
		wins, len(parent), len(parent)-wins-losses, 100*d.Bound, verdict)
	return verdict, len(parent) >= 10 && wins > 0 && wins*10 >= 9*(wins+losses) &&
		better(cm, pm) && math.Abs(cm-pm) > p3-p1
}

// gate judges every end-to-end metric of every workload the manifest names,
// writes the table to w, and returns each verdict by metric@workload and an
// error naming everything that failed.
func gate(w io.Writer, manifestPath, parentDir, changeDir, claim string) (map[string]string, error) {
	var man manifest
	if err := readJSON(manifestPath, &man); err != nil {
		return nil, err
	}
	pairs, perr := pairsOf(parentDir)
	changePairs, cerr := pairsOf(changeDir)
	if err := errors.Join(perr, cerr); err != nil || len(pairs) == 0 || !slices.Equal(pairs, changePairs) {
		return nil, fmt.Errorf("benchgate: the sides must hold the same pairs, at least one: parent %v, change %v (error: %v)", pairs, changePairs, err)
	}
	verdicts, counts, met := map[string]string{}, map[string]int{}, map[string]bool{}
	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	for _, wl := range man.Workloads {
		parent, perr := load(parentDir, pairs, wl.Name+".json")
		change, cerr := load(changeDir, pairs, wl.Name+".json")
		if err := errors.Join(perr, cerr); err != nil {
			fail("%s: result missing: %v", wl.Name, err)
			continue
		}
		fmt.Fprintf(w, "**`%s`** (pair: parent→change; failed share %.3g → %.3g)\n", wl.Name, parent.failShare, change.failShare)
		if !parent.correct || !change.correct {
			fail("%s: a run reports correct:false (parent all correct: %v, change: %v)", wl.Name, parent.correct, change.correct)
		}
		if change.failShare > parent.failShare {
			fail("%s: failed share rose from %.3g to %.3g", wl.Name, parent.failShare, change.failShare)
		}
		for _, d := range man.EndToEnd {
			p, c := parent.vals[d.Name], change.vals[d.Name]
			if len(p) != len(pairs) || len(c) != len(pairs) {
				fail("%s: metric %s missing: in %d parent and %d change runs of %d", wl.Name, d.Name, len(p), len(c), len(pairs))
				continue
			}
			key := d.Name + "@" + wl.Name
			verdicts[key], met[key] = judge(w, d, pairs, p, c)
			counts[verdicts[key]]++
			if verdicts[key] == "REGRESSED" {
				fail("%s: %s regressed", wl.Name, d.Name)
			}
		}
		parent, perr = load(parentDir, pairs, wl.Name+"-trace.json")
		change, cerr = load(changeDir, pairs, wl.Name+"-trace.json")
		for _, d := range man.PerLayer {
			p, c := parent.vals[d.Name], change.vals[d.Name]
			if perr == nil && cerr == nil && len(p) == len(pairs) && len(c) == len(pairs) {
				_, pm, _ := quartiles(p)
				_, cm, _ := quartiles(c)
				fmt.Fprintf(w, "  %s (%s, not gated): median %s → %s\n", d.Name, d.Unit, num(pm), num(cm))
			}
		}
	}
	if claim != "" && !met[claim] {
		fail("claim %s not met (or it names no end-to-end metric on a workload of the manifest)", claim)
	}
	fmt.Fprintf(w, "benchgate: %d pairs, %d cells: %d held, %d unresolved, %d regressed\n",
		len(pairs), len(verdicts), counts["held"], counts["unresolved"], counts["REGRESSED"])
	if len(failures) > 0 {
		return verdicts, fmt.Errorf("benchgate: failed:\n  %s", strings.Join(failures, "\n  "))
	}
	if claim != "" {
		fmt.Fprintf(w, "benchgate: claim %s met\n", claim)
	}
	return verdicts, nil
}

func main() {
	parent := flag.String("parent", "", "directory of the parent commit's runs, one sub-directory per pair (required)")
	change := flag.String("change", "", "directory of the change's runs, the same pairs (required)")
	claim := flag.String("claim", "", "metric@workload the change claims to improve")
	flag.Parse()
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgate -parent <dir> -change <dir> [-claim metric@workload]")
		os.Exit(2)
	}
	if _, err := gate(os.Stdout, "BENCHMARK.json", *parent, *change, *claim); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
