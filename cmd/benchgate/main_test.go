package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	lower  = metricDef{Name: "lat", Unit: "us", Better: "lower", Bound: 0.25}
	higher = metricDef{Name: "thr", Unit: "1/s", Better: "higher", Bound: 0.25}
)

// rep returns n copies of v followed by rest.
func rep(n int, v float64, rest ...float64) []float64 {
	out := make([]float64, n, n+len(rest))
	for i := range out {
		out[i] = v
	}
	return append(out, rest...)
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%02d", i+1)
	}
	return out
}

// spread is ten parent runs with median 100, first quartile 80 and third
// quartile q3: an inter-quartile spread of (q3-80) % of the median.
func spread(q3 float64) []float64 {
	return []float64{80, 80, 80, 100, 100, 100, 100, q3, q3, q3}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25], as bench/ pins it.
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1, 2, 3]; one run is its own quartiles.
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles of one = %v %v %v", q1, q2, q3)
	}
}

// TestJudgeVerdict pins the no-regression rule case by case: the median
// against the bound, the parent's spread against the bound, and the one
// thing that overrides a spread too wide to tell.
func TestJudgeVerdict(t *testing.T) {
	for _, c := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"lower: median worse by just over the bound regresses", lower, rep(10, 100), rep(10, 126), "REGRESSED"},
		{"lower: median worse by just under the bound holds", lower, rep(10, 100), rep(10, 124), "held"},
		{"lower: median worse by exactly the bound holds", lower, rep(10, 100), rep(10, 125), "held"},
		{"lower: a far better median holds", lower, rep(10, 100), rep(10, 10), "held"},
		{"higher: median worse by just over the bound regresses", higher, rep(10, 100), rep(10, 74), "REGRESSED"},
		{"higher: median worse by just under the bound holds", higher, rep(10, 100), rep(10, 76), "held"},
		{"higher: a far better median holds", higher, rep(10, 100), rep(10, 1000), "held"},
		{"parent spread just over the bound is unresolved, not unchanged", lower, spread(106), spread(106), "unresolved"},
		{"parent spread just under the bound holds", lower, spread(104), spread(104), "held"},
		{"higher: parent spread just over the bound is unresolved", higher, spread(106), spread(106), "unresolved"},
		{"lower: every change run better than every parent run overrides unresolved", lower, spread(106), rep(10, 79), "held"},
		{"higher: every change run better than every parent run overrides unresolved", higher, spread(106), rep(10, 107), "held"},
		{"one change run no better than the best parent run stays unresolved", lower, spread(106), rep(9, 70, 80), "unresolved"},
		{"a regression is a regression however wide the spread", lower, spread(106), rep(10, 130), "REGRESSED"},
	} {
		got, _ := judge(io.Discard, c.def, names(len(c.parent)), c.parent, c.change)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestJudgeClaim pins the gain rule: nine tenths of at least ten pairs,
// ties for neither side, medians apart by more than the parent's spread.
func TestJudgeClaim(t *testing.T) {
	for _, c := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           bool
	}{
		{"met at 9 of 10", lower, rep(10, 100), rep(9, 90, 110), true},
		{"not met at 8 of 10", lower, rep(10, 100), rep(8, 90, 110, 110), false},
		{"ties count for neither: 9 wins and 1 tie of 10 is 9 of 9", lower, rep(10, 100), rep(9, 90, 100), true},
		{"ties count for neither: 8 wins, 1 tie and 1 loss is 8 of 9", lower, rep(10, 100), rep(8, 90, 100, 110), false},
		{"higher: met at 9 of 10", higher, rep(10, 100), rep(9, 110, 90), true},
		{"higher: lower readings are not a gain", higher, rep(10, 100), rep(10, 90), false},
		{"10 of 10 but medians no further apart than the parent's quartiles", lower,
			[]float64{80, 85, 90, 95, 100, 105, 110, 115, 120, 125}, []float64{79, 84, 89, 94, 99, 104, 109, 114, 119, 124}, false},
		{"10 of 10 with medians further apart than the parent's quartiles", lower,
			[]float64{80, 85, 90, 95, 100, 105, 110, 115, 120, 125}, []float64{50, 55, 60, 65, 70, 75, 80, 85, 90, 95}, true},
		{"nine pairs are too few, all won", lower, rep(9, 100), rep(9, 50), false},
		{"all ties is no gain", lower, rep(10, 100), rep(10, 100), false},
	} {
		_, got := judge(io.Discard, c.def, names(len(c.parent)), c.parent, c.change)
		if got != c.want {
			t.Errorf("%s: claim met = %v, want %v", c.name, got, c.want)
		}
	}
}

// side describes one commit's synthetic result files for workload "w".
type side struct {
	vals      map[string][]float64 // metric → value per pair
	failed    int64                // of 1000 attempted, in every run
	incorrect int                  // 1-based pair whose run reports correct:false
}

func (s side) write(t *testing.T, dir, file string) {
	t.Helper()
	n := 0
	for _, v := range s.vals {
		n = max(n, len(v))
	}
	for i, pair := range names(n) {
		metrics := map[string]any{}
		for name, v := range s.vals {
			if i < len(v) { // a shorter column: the last runs lack the metric
				metrics[name] = map[string]any{"value": v[i], "unit": "x"}
			}
		}
		writeJSON(t, filepath.Join(dir, pair, file), map[string]any{"result": map[string]any{
			"correct": i+1 != s.incorrect, "attempted": 1000, "failed": s.failed, "metrics": metrics}})
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGate drives the whole tool over synthetic result files: one
// workload, one lower-is-better and one higher-is-better metric, ten pairs.
func TestGate(t *testing.T) {
	both := func(lat, thr float64) side {
		return side{vals: map[string][]float64{"lat": rep(10, lat), "thr": rep(10, thr)}}
	}
	for _, c := range []struct {
		name           string
		parent, change side
		claim          string
		wantErr        string // "" = exit 0
		wantOut        string
	}{
		{name: "within threshold", parent: both(100, 100), change: both(124, 76), wantOut: "2 held, 0 unresolved, 0 regressed"},
		{name: "regression fails", parent: both(100, 100), change: both(126, 100), wantErr: "w: lat regressed", wantOut: "REGRESSED"},
		{name: "higher-is-better regression fails", parent: both(100, 100), change: both(100, 74), wantErr: "w: thr regressed"},
		{name: "missing benchmark fails", parent: both(100, 100),
			change: side{vals: map[string][]float64{"lat": rep(10, 100)}}, wantErr: "w: metric thr missing"},
		{name: "metric missing in one parent run fails", parent: side{vals: map[string][]float64{"lat": rep(10, 100), "thr": rep(9, 100)}},
			change: both(100, 100), wantErr: "w: metric thr missing"},
		{name: "unresolved is printed and exits 0", parent: side{vals: map[string][]float64{"lat": spread(106), "thr": rep(10, 100)}},
			change: side{vals: map[string][]float64{"lat": spread(106), "thr": rep(10, 100)}}, wantOut: "1 held, 1 unresolved, 0 regressed"},
		{name: "failed share rising fails with every metric better", parent: both(100, 100),
			change: side{vals: both(50, 200).vals, failed: 1}, wantErr: "w: failed share rose"},
		{name: "failed share falling holds", parent: side{vals: both(100, 100).vals, failed: 2},
			change: side{vals: both(100, 100).vals, failed: 1}},
		{name: "correct false on one run fails", parent: both(100, 100),
			change: side{vals: both(100, 100).vals, incorrect: 7}, wantErr: "correct:false"},
		{name: "unequal pair counts refused", parent: both(100, 100),
			change: side{vals: map[string][]float64{"lat": rep(9, 100), "thr": rep(9, 100)}}, wantErr: "same pairs"},
		{name: "claim met", parent: both(100, 100), change: both(90, 100), claim: "lat@w", wantOut: "claim lat@w met"},
		{name: "claim not met", parent: both(100, 100), change: both(100, 100), claim: "lat@w", wantErr: "claim lat@w not met"},
		{name: "claim on a metric the manifest lacks fails", parent: both(100, 100), change: both(90, 100), claim: "lat@nowhere",
			wantErr: "claim lat@nowhere not met"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			man := filepath.Join(dir, "manifest.json")
			writeJSON(t, man, map[string]any{"workloads": []any{map[string]any{"name": "w"}}, "end_to_end": []metricDef{lower, higher}})
			c.parent.write(t, filepath.Join(dir, "parent"), "w.json")
			c.change.write(t, filepath.Join(dir, "change"), "w.json")
			var out strings.Builder
			_, err := gate(&out, man, filepath.Join(dir, "parent"), filepath.Join(dir, "change"), c.claim)
			if (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
				t.Fatalf("err = %v, want %q\n%s", err, c.wantErr, out.String())
			}
			if !strings.Contains(out.String(), c.wantOut) {
				t.Fatalf("output lacks %q:\n%s", c.wantOut, out.String())
			}
		})
	}
}

// TestMissingWorkloadFails: a workload the manifest names but a side did
// not run fails, and the other workloads are still judged.
func TestMissingWorkloadFails(t *testing.T) {
	dir := t.TempDir()
	man := filepath.Join(dir, "manifest.json")
	writeJSON(t, man, map[string]any{"workloads": []any{map[string]any{"name": "w"}, map[string]any{"name": "absent"}},
		"end_to_end": []metricDef{lower}})
	s := side{vals: map[string][]float64{"lat": rep(10, 100)}}
	s.write(t, filepath.Join(dir, "parent"), "w.json")
	s.write(t, filepath.Join(dir, "change"), "w.json")
	s.write(t, filepath.Join(dir, "parent"), "absent.json")
	verdicts, err := gate(io.Discard, man, filepath.Join(dir, "parent"), filepath.Join(dir, "change"), "")
	if err == nil || !strings.Contains(err.Error(), "absent: result missing") {
		t.Fatalf("err = %v, want the absent workload reported", err)
	}
	if len(verdicts) != 1 || verdicts["lat@w"] != "held" {
		t.Fatalf("verdicts = %v, want lat@w held", verdicts)
	}
}

// TestRealManifestCells loads the repository's BENCHMARK.json: every
// end_to_end × workloads cell is judged and nothing else is; per_layer
// metrics of traced files are printed and gate nothing, however bad.
func TestRealManifestCells(t *testing.T) {
	const path = "../../BENCHMARK.json"
	var man manifest
	if err := readJSON(path, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) == 0 || len(man.EndToEnd) == 0 || len(man.PerLayer) == 0 {
		t.Fatalf("manifest read as %d workloads, %d end-to-end and %d per-layer metrics", len(man.Workloads), len(man.EndToEnd), len(man.PerLayer))
	}
	dir := t.TempDir()
	untraced, tracedParent, tracedChange := side{vals: map[string][]float64{}}, side{vals: map[string][]float64{}}, side{vals: map[string][]float64{}}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v: want a positive bound and a direction", d)
		}
		untraced.vals[d.Name] = rep(10, 5)
	}
	for _, d := range man.PerLayer {
		tracedParent.vals[d.Name] = rep(10, 1)
		tracedChange.vals[d.Name] = rep(10, 1000)
	}
	want := map[string]string{}
	for _, wl := range man.Workloads {
		untraced.write(t, filepath.Join(dir, "parent"), wl.Name+".json")
		untraced.write(t, filepath.Join(dir, "change"), wl.Name+".json")
		tracedParent.write(t, filepath.Join(dir, "parent"), wl.Name+"-trace.json")
		tracedChange.write(t, filepath.Join(dir, "change"), wl.Name+"-trace.json")
		for _, d := range man.EndToEnd {
			want[d.Name+"@"+wl.Name] = "held"
		}
	}
	var out strings.Builder
	got, err := gate(&out, path, filepath.Join(dir, "parent"), filepath.Join(dir, "change"), "")
	if err != nil {
		t.Fatalf("per-layer metrics must gate nothing: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("judged %v\nwant   %v", got, want)
	}
	for _, d := range man.PerLayer {
		if n := strings.Count(out.String(), "  "+d.Name+" ("); n != len(man.Workloads) {
			t.Errorf("per-layer metric %s printed %d times, want once per workload", d.Name, n)
		}
	}
}
