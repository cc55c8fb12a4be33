package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-9 {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary wrong")
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.P95 != 7 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize sorted the caller's slice")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{{0, 10}, {100, 40}, {50, 25}, {25, 17.5}}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMeanAndMax(t *testing.T) {
	if Summarize([]float64{2, 4}).Mean != 3 || Summarize(nil).Mean != 0 {
		t.Fatal("Summary.Mean wrong")
	}
	if MaxFloat([]float64{1, 9, 3}) != 9 {
		t.Fatal("MaxFloat wrong")
	}
	if !math.IsInf(MaxFloat(nil), -1) {
		t.Fatal("MaxFloat(nil) should be -inf")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("alg", "ratio")
	tb.AddRow("lsrc", 1.6667)
	tb.AddRow("fcfs", 3)
	out := tb.String()
	if !strings.Contains(out, "alg") || !strings.Contains(out, "1.667") {
		t.Fatalf("table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "alg,ratio\n") || !strings.Contains(csv, "fcfs,3") {
		t.Fatalf("csv:\n%s", csv)
	}
}
