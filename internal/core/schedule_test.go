package core

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

func TestScheduleBasics(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	if complete(s) {
		t.Fatal("fresh schedule should be incomplete")
	}
	if s.Makespan() != 0 {
		t.Fatalf("empty makespan = %v", s.Makespan())
	}
	s.SetStart(0, 0)  // job 0: procs 4 len 10 -> ends 10
	s.SetStart(1, 7)  // job 1: procs 2 len 5 -> ends 12
	s.SetStart(2, 30) // job 2: procs 8 len 1 -> ends 31
	if !complete(s) {
		t.Fatal("schedule should be complete")
	}
	if got := s.Makespan(); got != 31 {
		t.Fatalf("Makespan = %v, want 31", got)
	}
	if s.StartOf(1) != 7 || s.EndOf(1) != 12 {
		t.Fatalf("StartOf/EndOf wrong: %v %v", s.StartOf(1), s.EndOf(1))
	}
}

// complete reports whether every job of s has been assigned a start time.
func complete(s *Schedule) bool {
	for _, t := range s.Start {
		if t == Unscheduled {
			return false
		}
	}
	return true
}

func TestEndOfUnscheduled(t *testing.T) {
	s := NewSchedule(validInstance())
	if s.EndOf(0) != Unscheduled {
		t.Fatal("EndOf of unscheduled job should be Unscheduled")
	}
}

func TestScheduleUsage(t *testing.T) {
	in := &Instance{M: 8, Jobs: []Job{
		{ID: 0, Procs: 3, Len: 10},
		{ID: 1, Procs: 2, Len: 5},
	}}
	s := NewSchedule(in)
	s.SetStart(0, 0)
	s.SetStart(1, 5)
	u := s.Usage()
	cases := []struct {
		t    Time
		want int
	}{{0, 3}, {4, 3}, {5, 5}, {9, 5}, {10, 0}, {11, 0}}
	for _, c := range cases {
		if got := u.At(c.t); got != c.want {
			t.Errorf("usage(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestScheduleTotalUsage(t *testing.T) {
	in := &Instance{
		M:    8,
		Jobs: []Job{{ID: 0, Procs: 3, Len: 10}},
		Res:  []Reservation{{ID: 0, Procs: 4, Start: 2, Len: 3}},
	}
	s := NewSchedule(in)
	s.SetStart(0, 0)
	tu := s.TotalUsage()
	if tu.At(0) != 3 || tu.At(2) != 7 || tu.At(5) != 3 || tu.At(10) != 0 {
		t.Fatalf("TotalUsage wrong: %v", tu)
	}
	if tu.Max() != 7 {
		t.Fatalf("peak = %d, want 7", tu.Max())
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	s.Algorithm = "lsrc"
	s.SetStart(0, 0)
	s.SetStart(1, 4)
	s.SetStart(2, 9)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back := decodeSchedule(t, &buf)
	if back.Algorithm != "lsrc" {
		t.Fatalf("algorithm lost: %q", back.Algorithm)
	}
	for i, j := range in.Jobs {
		if got, ok := back.Starts[j.ID]; !ok || got != s.Start[i] {
			t.Fatalf("job %d: start %v (present %v), want %v", j.ID, got, ok, s.Start[i])
		}
	}
}

func TestScheduleJSONSkipsUnscheduled(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	s.SetStart(1, 3)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back := decodeSchedule(t, &buf)
	if len(back.Starts) != 1 || back.Starts[in.Jobs[1].ID] != 3 {
		t.Fatalf("partial schedule written as %v, want only job %d at 3", back.Starts, in.Jobs[1].ID)
	}
}

// decodeSchedule reads WriteJSON's output back into its wire form.
func decodeSchedule(t *testing.T, r io.Reader) scheduleJSON {
	t.Helper()
	var raw scheduleJSON
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	return raw
}
