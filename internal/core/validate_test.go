package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// duplicateErrWithMap is Validate's id rule as a map states it: the first
// negative id or id seen before, in input order, is the error.
func duplicateErrWithMap(what string, ids []int) error {
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || seen[id] {
			return fmt.Errorf("%w: %s id %d", ErrDuplicateID, what, id)
		}
		seen[id] = true
	}
	return nil
}

// TestValidateDuplicatesMatchMap draws job and reservation ids from small
// ranges, in random order and with negatives, and checks Validate names
// the same first offender the map rule does.
func TestValidateDuplicatesMatchMap(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		in := &Instance{M: 8}
		n := r.Intn(12)
		span := 1 + r.Intn(3*n+1)
		jobIDs := make([]int, n)
		for i := range jobIDs {
			jobIDs[i] = r.Intn(span) - r.Intn(2)*r.Intn(2)
			in.Jobs = append(in.Jobs, Job{ID: jobIDs[i], Procs: 1, Len: 1})
		}
		var resIDs []int
		if r.Intn(2) == 0 { // reservations are checked only once the jobs pass
			in.Jobs = in.Jobs[:0]
			jobIDs = jobIDs[:0]
			for i := 0; i < n; i++ {
				jobIDs = append(jobIDs, i)
				in.Jobs = append(in.Jobs, Job{ID: i, Procs: 1, Len: 1})
			}
			for i := r.Intn(8); i > 0; i-- {
				id := r.Intn(span+1) - r.Intn(2)*r.Intn(2)
				resIDs = append(resIDs, id)
				in.Res = append(in.Res, Reservation{ID: id, Procs: 1, Start: Time(10 * len(resIDs)), Len: 1})
			}
		}
		want := duplicateErrWithMap("job", jobIDs)
		if want == nil {
			want = duplicateErrWithMap("reservation", resIDs)
		}
		got := in.Validate()
		if (got == nil) != (want == nil) || (got != nil && (got.Error() != want.Error() || !errors.Is(got, ErrDuplicateID))) {
			t.Fatalf("trial %d: jobs %v reservations %v: got %v, want %v", trial, jobIDs, resIDs, got, want)
		}
	}
}

func TestFirstDuplicateAllocs(t *testing.T) {
	ids := rand.New(rand.NewSource(36)).Perm(1000)
	id := func(i int) int { return ids[i] }
	if a := testing.AllocsPerRun(20, func() { firstDuplicate(len(ids), id) }); a > 1 {
		t.Errorf("shuffled ids: %v allocations, want at most 1", a)
	}
	for i := range ids {
		ids[i] = 2 * i
	}
	if a := testing.AllocsPerRun(20, func() { firstDuplicate(len(ids), id) }); a != 0 {
		t.Errorf("increasing ids: %v allocations, want 0", a)
	}
	ids[700] = ids[300]
	ids[900] = ids[100]
	if got := firstDuplicate(len(ids), id); got != 700 {
		t.Errorf("first duplicate at %d, want 700", got)
	}
}
