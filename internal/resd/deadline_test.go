package resd

import (
	"errors"
	"testing"
)

func TestReserveByAdmitsWithinDeadline(t *testing.T) {
	s := mustNew(t, Config{M: 8})
	// Block all 8 processors on [0,100); the earliest start for anything
	// else is 100.
	if _, err := s.Admit(Request{Q: 8, Dur: 100, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	r, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: 100})
	if err != nil || r.Start != 100 {
		t.Fatalf("deadline=100: start=%v err=%v, want start=100 admitted", r.Start, err)
	}
}

func TestReserveByRejectsPastDeadline(t *testing.T) {
	s := mustNew(t, Config{M: 8})
	if _, err := s.Admit(Request{Q: 8, Dur: 100, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: 99}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("deadline=99 with earliest start 100: err = %v, want ErrDeadline", err)
	}
	// A deadline rejection must not consume capacity: the same request
	// with a loose deadline still starts at 100.
	r, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil || r.Start != 100 {
		t.Fatalf("after rejection: start=%v err=%v, want start=100", r.Start, err)
	}
	st := s.Stats()[0]
	if st.RejectedDeadline != 1 {
		t.Errorf("RejectedDeadline = %d, want 1", st.RejectedDeadline)
	}
	if st.Rejected != 0 {
		t.Errorf("Rejected = %d, want 0 (deadline rejections are counted separately)", st.Rejected)
	}
}

func TestReserveByDeadlineBeforeReady(t *testing.T) {
	s := mustNew(t, Config{M: 8})
	if _, err := s.Admit(Request{Ready: 50, Q: 1, Dur: 10, Deadline: 49}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("deadline before ready: want ErrDeadline, got %v", err)
	}
	// Even the statically doomed case must be counted in the shard stats:
	// ShardStats.RejectedDeadline tracks every deadline rejection callers
	// observe.
	if st := s.Stats()[0]; st.RejectedDeadline != 1 {
		t.Errorf("RejectedDeadline = %d, want 1", st.RejectedDeadline)
	}
	if _, err := s.Admit(Request{Ready: 50, Q: 1, Dur: 10, Deadline: -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative deadline: want ErrBadRequest, got %v", err)
	}
}

func TestReserveByTriesOtherShards(t *testing.T) {
	// Shard 0 is fully held on [0,1000); shard 1 holds more area, but
	// later, on [1000,3000). The lighter shard 0 is tried first and a tight
	// deadline fails there, while shard 1 is idle at 0, so the request must
	// not stop at the first deadline rejection.
	s := mustNew(t, Config{Shards: 2, M: 8})
	for _, req := range []Request{
		{Q: 8, Dur: 1000, Deadline: NoDeadline},
		{Ready: 1000, Q: 8, Dur: 2000, Deadline: NoDeadline},
	} {
		if _, err := s.Admit(req); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st[0].CommittedArea >= st[1].CommittedArea {
		t.Fatalf("setup: shard 0 holds %d, shard 1 %d; want shard 0 lighter", st[0].CommittedArea, st[1].CommittedArea)
	}
	r, err := s.Admit(Request{Q: 8, Dur: 10, Deadline: 0})
	if err != nil {
		t.Fatalf("ReserveBy across shards: %v", err)
	}
	if r.Shard != 1 || r.Start != 0 {
		t.Fatalf("got shard %d start %v, want shard 1 start 0", r.Shard, r.Start)
	}
	if st := s.Stats()[0]; st.RejectedDeadline != 1 {
		t.Fatalf("shard 0 refused %d times for the deadline, want 1: it is tried first", st.RejectedDeadline)
	}
}

func TestReserveByPrefersDeadlineErrorOverNeverFits(t *testing.T) {
	// α=0.5 on m=8 admits at most q=4. Hold shard capacity so a q=4
	// request with deadline 0 is feasible-but-late: the error must be
	// ErrDeadline (the request could run, just not in time).
	s := mustNew(t, Config{M: 8, Alpha: 0.5})
	if _, err := s.Admit(Request{Q: 4, Dur: 50, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: 10}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

func TestReserveDelegatesToNoDeadline(t *testing.T) {
	// Plain Reserve must behave as deadline-free: an arbitrarily late
	// earliest start is still admitted.
	s := mustNew(t, Config{M: 4})
	if _, err := s.Admit(Request{Q: 4, Dur: 1_000_000, Deadline: NoDeadline}); err != nil {
		t.Fatal(err)
	}
	r, err := s.Admit(Request{Q: 4, Dur: 10, Deadline: NoDeadline})
	if err != nil || r.Start != 1_000_000 {
		t.Fatalf("start=%v err=%v, want start=1000000", r.Start, err)
	}
}
