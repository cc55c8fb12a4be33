package workload

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

const sampleSWF = `; Version: 2.2
; MaxProcs: 128
; MaxNodes: 64
1 0 5 100 4 -1 -1 4 120 -1 1 1 1 -1 -1 -1 -1 -1
2 10 0 50 8 -1 -1 -1 60 -1 1 1 1 -1 -1 -1 -1 -1
3 20 2 0 4 -1 -1 4 10 -1 0 1 1 -1 -1 -1 -1 -1
4 15 1 30 200 -1 -1 200 40 -1 1 1 1 -1 -1 -1 -1 -1
`

func TestParseSWF(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxProcs != 128 {
		t.Fatalf("MaxProcs = %d", tr.MaxProcs)
	}
	if len(tr.Jobs) != 4 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	j := tr.Jobs[0]
	if j.ID != 1 || j.Submit != 0 || j.Wait != 5 || j.Run != 100 || j.Procs != 4 ||
		j.ReqProcs != 4 || j.ReqTime != 120 || j.Status != 1 {
		t.Fatalf("job 0 = %+v", j)
	}
	if len(tr.Comments) != 3 {
		t.Fatalf("comments = %v", tr.Comments)
	}
}

func TestParseSWFErrors(t *testing.T) {
	if _, err := ParseSWF(strings.NewReader("1 2 3\n")); !errors.Is(err, ErrSWF) {
		t.Fatalf("short line: %v", err)
	}
	if _, err := ParseSWF(strings.NewReader("a b c d e f g h i j k\n")); !errors.Is(err, ErrSWF) {
		t.Fatalf("non-numeric: %v", err)
	}
}

func TestSWFRoundTrip(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSWF(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if back.MaxProcs != tr.MaxProcs || len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("round trip shape: %+v", back)
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], back.Jobs[i]
		if a.ID != b.ID || a.Submit != b.Submit || a.Run != b.Run ||
			a.Procs != b.Procs || a.ReqProcs != b.ReqProcs || a.Status != b.Status {
			t.Fatalf("job %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestTraceArrivalsSorted(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := tr.Arrivals(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 3 {
		t.Fatalf("arrivals = %d", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatal("arrivals not sorted")
		}
	}
	// Job with submit 10 precedes job with submit 15.
	if arr[1].At != 10 || arr[2].At != 15 {
		t.Fatalf("order: %+v", arr)
	}
}

// TestTraceArrivalsWidths: a record without a requested size falls back
// to its allocated one, a width past the machine is clamped to it, and
// the machine size comes from the MaxProcs header unless m is given.
func TestTraceArrivalsWidths(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := tr.Arrivals(0)
	if err != nil {
		t.Fatal(err)
	}
	if arr[1].Job.Procs != 8 || arr[2].Job.Procs != 128 {
		t.Fatalf("widths %d and %d, want the fallback 8 and the clamp 128", arr[1].Job.Procs, arr[2].Job.Procs)
	}
	bare := &Trace{Jobs: []SWFJob{{ID: 1, Run: 5, Procs: 2}}}
	if _, err := bare.Arrivals(0); !errors.Is(err, ErrSWF) {
		t.Fatalf("no machine size: got %v", err)
	}
	if arr, err := bare.Arrivals(16); err != nil || len(arr) != 1 {
		t.Fatalf("explicit m: %v %v", arr, err)
	}
}

func TestSyntheticShape(t *testing.T) {
	r := rng.New(7)
	arr, err := Synthetic(r, SynthConfig{M: 64, N: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2000 {
		t.Fatalf("n = %d", len(arr))
	}
	pow2 := 0
	serial := 0
	for i, a := range arr {
		if a.Job.Procs < 1 || a.Job.Procs > 64 {
			t.Fatalf("width %d out of range", a.Job.Procs)
		}
		if a.Job.Len < 10 || a.Job.Len > 10000 {
			t.Fatalf("runtime %v out of range", a.Job.Len)
		}
		if i > 0 && a.At < arr[i-1].At {
			t.Fatal("arrivals not monotone")
		}
		if a.Job.Procs&(a.Job.Procs-1) == 0 {
			pow2++
		}
		if a.Job.Procs == 1 {
			serial++
		}
	}
	// Most jobs should be powers of two (serial jobs included), and a
	// noticeable fraction serial.
	if float64(pow2)/2000 < 0.6 {
		t.Fatalf("power-of-two fraction %v too low", float64(pow2)/2000)
	}
	if serial < 200 {
		t.Fatalf("serial count %d too low", serial)
	}
}

func TestSyntheticRuntimeLogUniform(t *testing.T) {
	r := rng.New(8)
	arr, err := Synthetic(r, SynthConfig{M: 16, N: 5000, MinRun: 10, MaxRun: 10000})
	if err != nil {
		t.Fatal(err)
	}
	// Log-uniform: the median should sit near sqrt(10*10000) ~ 316, far
	// below the arithmetic midpoint 5005.
	var logs []float64
	for _, a := range arr {
		logs = append(logs, math.Log(float64(a.Job.Len)))
	}
	mean := 0.0
	for _, v := range logs {
		mean += v
	}
	mean /= float64(len(logs))
	want := (math.Log(10) + math.Log(10000)) / 2
	if math.Abs(mean-want) > 0.15 {
		t.Fatalf("log-mean %v, want about %v", mean, want)
	}
}

func TestDailyCycleModulatesArrivals(t *testing.T) {
	r := rng.New(33)
	const cycle = 1000
	arr, err := Synthetic(r, SynthConfig{
		M: 8, N: 20000, MinRun: 1, MaxRun: 10,
		MeanInterArrival: 1, DailyCycle: cycle, DailyAmplitude: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bucket arrivals by cycle phase halves: the sin-positive half
	// [0, cycle/2) must receive clearly more arrivals than the other.
	var up, down int
	for _, a := range arr {
		if int64(a.At)%cycle < cycle/2 {
			up++
		} else {
			down++
		}
	}
	if up < down*2 {
		t.Fatalf("daily cycle too weak: %d vs %d arrivals per half-cycle", up, down)
	}
	// Still sorted.
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatal("arrivals not monotone")
		}
	}
}

func TestDailyAmplitudeValidation(t *testing.T) {
	_, err := Synthetic(rng.New(1), SynthConfig{
		M: 4, N: 5, DailyCycle: 100, DailyAmplitude: 1.5,
	})
	if err == nil {
		t.Fatal("amplitude > 1 accepted")
	}
}

func TestSyntheticInstanceValid(t *testing.T) {
	r := rng.New(9)
	inst, err := SyntheticInstance(r, SynthConfig{M: 32, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.Jobs) != 100 {
		t.Fatalf("jobs = %d", len(inst.Jobs))
	}
}

func TestSynthConfigValidation(t *testing.T) {
	if _, err := Synthetic(rng.New(1), SynthConfig{M: 0, N: 5}); err == nil {
		t.Fatal("M=0 accepted")
	}
	if _, err := Synthetic(rng.New(1), SynthConfig{M: 4, N: 5, MinRun: 100, MaxRun: 10}); err == nil {
		t.Fatal("MaxRun < MinRun accepted")
	}
}

func TestReservationStreamRespectsAlpha(t *testing.T) {
	r := rng.New(10)
	for _, alpha := range []float64{0.25, 0.5, 0.75} {
		res := ReservationStream(r, 32, alpha, 20, 1000)
		u := core.UnavailabilityOf(res)
		maxU := 32 - int(alpha*32)
		if u.Max() > maxU {
			t.Fatalf("alpha=%v: peak unavailability %d > %d", alpha, u.Max(), maxU)
		}
	}
}

func TestReservationStreamAlphaOne(t *testing.T) {
	if res := ReservationStream(rng.New(2), 8, 1.0, 5, 100); len(res) != 0 {
		t.Fatalf("alpha=1 should admit no reservations, got %d", len(res))
	}
}
