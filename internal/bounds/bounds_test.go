package bounds

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGraham(t *testing.T) {
	cases := []struct {
		m    int
		want float64
	}{{1, 1}, {2, 1.5}, {4, 1.75}, {180, 2 - 1.0/180}}
	for _, c := range cases {
		if got := Graham(c.m); !almost(got, c.want) {
			t.Errorf("Graham(%d) = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestGrahamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Graham(0) did not panic")
		}
	}()
	Graham(0)
}

func TestNonIncreasing(t *testing.T) {
	if got := NonIncreasing(4); !almost(got, 1.75) {
		t.Errorf("NonIncreasing(4) = %v", got)
	}
}

func TestAlphaUpperKnownValues(t *testing.T) {
	// §4.2: "For α = 1/2, we obtain a bound of 4."
	if got := AlphaUpper(0.5); !almost(got, 4) {
		t.Errorf("AlphaUpper(1/2) = %v, want 4", got)
	}
	if got := AlphaUpper(1); !almost(got, 2) {
		t.Errorf("AlphaUpper(1) = %v, want 2", got)
	}
}

func TestProp2KnownValues(t *testing.T) {
	// α = 1/3 (k=6): 6 - 1 + 1/6 = 31/6 — the Figure 3 ratio 31/6.
	if got := Prop2(1.0 / 3); !almost(got, 31.0/6) {
		t.Errorf("Prop2(1/3) = %v, want 31/6", got)
	}
	// α = 2/3 (k=3): 3 - 1 + 1/3 = 7/3 — the k=3 fixture in sched tests.
	if got := Prop2(2.0 / 3); !almost(got, 7.0/3) {
		t.Errorf("Prop2(2/3) = %v, want 7/3", got)
	}
	// α = 1 (k=2): 2 - 1 + 1/2 = 3/2.
	if got := Prop2(1); !almost(got, 1.5) {
		t.Errorf("Prop2(1) = %v, want 3/2", got)
	}
}

func TestB1ReducesToProp2OnIntegerK(t *testing.T) {
	for k := 2; k <= 20; k++ {
		a := 2.0 / float64(k)
		if got, want := B1(a), Prop2(a); !almost(got, want) {
			t.Errorf("B1(2/%d) = %v, want Prop2 = %v", k, got, want)
		}
	}
}

func TestB2AtIntegerK(t *testing.T) {
	// B2(2/k) = k - (k-1)/k.
	for k := 2; k <= 20; k++ {
		a := 2.0 / float64(k)
		want := float64(k) - float64(k-1)/float64(k)
		if got := B2(a); !almost(got, want) {
			t.Errorf("B2(2/%d) = %v, want %v", k, got, want)
		}
	}
}

func TestB1AtLeastB2(t *testing.T) {
	f := func(raw uint16) bool {
		a := (float64(raw%10000) + 1) / 10001 // alpha in (0,1)
		return B1(a) >= B2(a)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUpperAboveLowerBounds(t *testing.T) {
	f := func(raw uint16) bool {
		a := (float64(raw%10000) + 1) / 10001
		u := AlphaUpper(a)
		return u >= B1(a)-1e-9 && u >= B2(a)-1e-9 && u >= Prop2(a)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsMonotoneInAlpha(t *testing.T) {
	// The upper bound 2/α and B2 are non-increasing in α.
	prevU, prevB2 := math.Inf(1), math.Inf(1)
	for i := 1; i <= 1000; i++ {
		a := float64(i) / 1000
		u, b2 := AlphaUpper(a), B2(a)
		if u > prevU+1e-9 {
			t.Fatalf("AlphaUpper not non-increasing at α=%v", a)
		}
		if b2 > prevB2+1e-9 {
			t.Fatalf("B2 not non-increasing at α=%v", a)
		}
		prevU, prevB2 = u, b2
	}
}

func TestGapTightAtIntegerK(t *testing.T) {
	// At α = 2/k the gap 2/α ÷ B1 = k / (k-1+1/k) → 1 as k grows: the
	// paper's "arbitrarily close" remark.
	prev := Gap(2.0 / 2)
	for k := 3; k <= 64; k++ {
		g := Gap(2.0 / float64(k))
		if g >= prev {
			t.Fatalf("gap at 2/%d (%v) not smaller than at 2/%d (%v)", k, g, k-1, prev)
		}
		prev = g
	}
	if prev > 1.02 {
		t.Fatalf("gap at k=64 still %v; should approach 1", prev)
	}
}

func TestFigure4(t *testing.T) {
	rows := Figure4(50)
	if len(rows) != 50 {
		t.Fatalf("len = %d", len(rows))
	}
	if !almost(rows[len(rows)-1].Alpha, 1) {
		t.Fatalf("last alpha = %v", rows[len(rows)-1].Alpha)
	}
	for _, r := range rows {
		if r.Upper < r.B1-1e-9 || r.B1 < r.B2-1e-9 {
			t.Fatalf("ordering violated at α=%v: %+v", r.Alpha, r)
		}
	}
	// Paper's Figure 4 y-axis tops out at 10: the curves reach ~10 near
	// α=0.2 (upper bound 2/0.2 = 10).
	if !almost(rows[9].Upper, 10) { // α = 10/50 = 0.2
		t.Fatalf("Upper(0.2) = %v, want 10", rows[9].Upper)
	}
}

func TestValidAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", a)
				}
			}()
			AlphaUpper(a)
		}()
	}
}

func TestFigure4PanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Figure4(0) did not panic")
		}
	}()
	Figure4(0)
}
