package threepart

import (
	"errors"
	"testing"

	"repro/internal/rng"
)

func TestValidate(t *testing.T) {
	ok := &Instance{Items: []int64{7, 7, 6, 8, 5, 7}, B: 20}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	cases := []struct {
		in   Instance
		want error
	}{
		{Instance{Items: []int64{1, 2}, B: 3}, ErrShape},
		{Instance{Items: nil, B: 3}, ErrShape},
		{Instance{Items: []int64{1, 2, 3}, B: 7}, ErrSum},
		{Instance{Items: []int64{1, -2, 3}, B: 2}, ErrItem},
		{Instance{Items: []int64{0, 2, 3}, B: 5}, ErrItem},
	}
	for _, c := range cases {
		if err := c.in.Validate(); !errors.Is(err, c.want) {
			t.Errorf("Validate(%v) = %v, want %v", c.in, err, c.want)
		}
	}
}

func TestSolveTinyYes(t *testing.T) {
	in := &Instance{Items: []int64{7, 7, 6, 8, 5, 7}, B: 20}
	groups, ok := in.Solve()
	if !ok {
		t.Fatal("YES instance reported unsolvable")
	}
	if err := in.VerifyPartition(groups); err != nil {
		t.Fatal(err)
	}
}

func TestSolveTinyNo(t *testing.T) {
	// Sum = 2*18=36 with k=2, B=18, but the 17 forces a group 17+x+y=18
	// with positive x,y — impossible.
	in := &Instance{Items: []int64{17, 9, 1, 1, 7, 1}, B: 18}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := in.Solve(); ok {
		t.Fatal("NO instance reported solvable")
	}
}

func TestSolveK1(t *testing.T) {
	in := &Instance{Items: []int64{5, 7, 8}, B: 20}
	groups, ok := in.Solve()
	if !ok || len(groups) != 1 {
		t.Fatalf("k=1 failed: %v %v", groups, ok)
	}
}

func TestSolveRejectsInvalid(t *testing.T) {
	in := &Instance{Items: []int64{1, 2}, B: 3}
	if _, ok := in.Solve(); ok {
		t.Fatal("invalid instance solved")
	}
}

func TestSolveWithDuplicates(t *testing.T) {
	// All items equal: trivially solvable; the equal-value skip must not
	// lose solutions.
	in := &Instance{Items: []int64{5, 5, 5, 5, 5, 5, 5, 5, 5}, B: 15}
	groups, ok := in.Solve()
	if !ok {
		t.Fatal("uniform instance unsolvable")
	}
	if err := in.VerifyPartition(groups); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateYesAlwaysSolvable(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 40; trial++ {
		k := r.IntRange(1, 6)
		b := int64(r.IntRange(12, 200))
		in := GenerateYes(r, k, b)
		if err := in.Validate(); err != nil {
			t.Fatalf("trial %d: generated instance invalid: %v", trial, err)
		}
		for _, x := range in.Items {
			if 4*x <= in.B || 2*x >= in.B {
				t.Fatalf("trial %d: item %d outside (B/4, B/2): %+v", trial, x, in)
			}
		}
		groups, ok := in.Solve()
		if !ok {
			t.Fatalf("trial %d: YES instance unsolvable: %+v", trial, in)
		}
		if err := in.VerifyPartition(groups); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestVerifyPartitionRejects(t *testing.T) {
	in := &Instance{Items: []int64{7, 7, 6, 8, 5, 7}, B: 20}
	cases := [][][3]int{
		{{0, 1, 2}},            // wrong group count
		{{0, 1, 2}, {3, 4, 4}}, // duplicate index
		{{0, 1, 2}, {3, 4, 9}}, // out of range
		{{0, 1, 3}, {2, 4, 5}}, // wrong sums (22 and 18)
	}
	for i, g := range cases {
		if err := in.VerifyPartition(g); err == nil {
			t.Errorf("case %d accepted: %v", i, g)
		}
	}
}

func TestGenerateYesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GenerateYes(k=0) did not panic")
		}
	}()
	GenerateYes(rng.New(1), 0, 100)
}

func BenchmarkSolveK4(b *testing.B) {
	r := rng.New(7)
	in := GenerateYes(r, 4, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := in.Solve(); !ok {
			b.Fatal("unsolvable")
		}
	}
}
