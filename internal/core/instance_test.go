package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func validInstance() *Instance {
	return &Instance{
		Name: "t",
		M:    8,
		Jobs: []Job{
			{ID: 0, Procs: 4, Len: 10},
			{ID: 1, Procs: 2, Len: 5},
			{ID: 2, Procs: 8, Len: 1},
		},
		Res: []Reservation{
			{ID: 0, Procs: 2, Start: 3, Len: 4},
			{ID: 1, Procs: 4, Start: 20, Len: 10},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	// A finite window that ends exactly at the end of time never ends.
	in := validInstance()
	in.Res[1].Len = Infinity - in.Res[1].Start
	if err := in.Validate(); err != nil {
		t.Fatalf("window ending at Infinity rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   error
	}{
		{"no machines", func(in *Instance) { in.M = 0 }, ErrNoMachines},
		{"job too wide", func(in *Instance) { in.Jobs[0].Procs = 9 }, ErrBadJob},
		{"job zero procs", func(in *Instance) { in.Jobs[0].Procs = 0 }, ErrBadJob},
		{"job zero len", func(in *Instance) { in.Jobs[1].Len = 0 }, ErrBadJob},
		{"job negative len", func(in *Instance) { in.Jobs[1].Len = -3 }, ErrBadJob},
		{"job infinite len", func(in *Instance) { in.Jobs[1].Len = Infinity }, ErrBadJob},
		{"dup job id", func(in *Instance) { in.Jobs[1].ID = 0 }, ErrDuplicateID},
		{"negative job id", func(in *Instance) { in.Jobs[1].ID = -1 }, ErrDuplicateID},
		{"res too wide", func(in *Instance) { in.Res[0].Procs = 9 }, ErrBadReservation},
		{"res zero procs", func(in *Instance) { in.Res[0].Procs = 0 }, ErrBadReservation},
		{"res zero len", func(in *Instance) { in.Res[0].Len = 0 }, ErrBadReservation},
		{"res negative start", func(in *Instance) { in.Res[0].Start = -1 }, ErrBadReservation},
		{"res wraps past the end of time", func(in *Instance) { in.Res[0].Start, in.Res[0].Len = Infinity-5, 10 }, ErrBadReservation},
		{"res starts at the end of time", func(in *Instance) { in.Res[0].Start, in.Res[0].Len = Infinity, 1 }, ErrBadReservation},
		{"dup res id", func(in *Instance) { in.Res[1].ID = 0 }, ErrDuplicateID},
		{"oversubscribed", func(in *Instance) {
			in.Res = append(in.Res, Reservation{ID: 5, Procs: 8, Start: 4, Len: 2})
		}, ErrResOverSubscribe},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := validInstance()
			c.mutate(in)
			err := in.Validate()
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}

func TestTotalWorkAndMaxima(t *testing.T) {
	in := validInstance()
	want := int64(4*10 + 2*5 + 8*1)
	if got := in.TotalWork(); got != want {
		t.Errorf("TotalWork = %d, want %d", got, want)
	}
	if got := in.MaxJobProcs(); got != 8 {
		t.Errorf("MaxJobProcs = %d, want 8", got)
	}
	empty := &Instance{M: 4}
	if empty.TotalWork() != 0 || empty.MaxJobProcs() != 0 {
		t.Error("empty instance aggregates should be zero")
	}
}

func TestAlpha(t *testing.T) {
	// Reservations peak at 4 of 8 procs -> alpha = 0.5; max job width 8 >
	// 0.5*8 -> not a valid alpha-instance.
	in := validInstance()
	alpha, ok := in.Alpha()
	if ok {
		t.Fatalf("instance with full-width job reported as alpha-feasible (alpha=%v)", alpha)
	}
	// Drop the wide job: remaining widths 4 and 2, 4 <= 0.5*8 -> ok.
	in.Jobs = in.Jobs[:2]
	alpha, ok = in.Alpha()
	if !ok || alpha != 0.5 {
		t.Fatalf("Alpha = %v, %v; want 0.5, true", alpha, ok)
	}
	// No reservations at all: alpha = 1.
	in.Res = nil
	alpha, ok = in.Alpha()
	if !ok || alpha != 1 {
		t.Fatalf("Alpha without reservations = %v, %v; want 1, true", alpha, ok)
	}
	// Reservations holding the whole machine: no feasible alpha.
	in.Res = []Reservation{{ID: 0, Procs: 8, Start: 0, Len: 1}}
	if _, ok := in.Alpha(); ok {
		t.Fatal("full blockade should not be alpha-feasible")
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := validInstance()
	cp := in.Clone()
	cp.Jobs[0].Len = 999
	cp.Res[0].Start = 999
	if in.Jobs[0].Len == 999 || in.Res[0].Start == 999 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	in := validInstance()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstanceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.M != in.M || len(back.Jobs) != len(in.Jobs) || len(back.Res) != len(in.Res) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i := range in.Jobs {
		if back.Jobs[i] != in.Jobs[i] {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, back.Jobs[i], in.Jobs[i])
		}
	}
	for i := range in.Res {
		if back.Res[i] != in.Res[i] {
			t.Fatalf("res %d mismatch", i)
		}
	}
}

func TestReadInstanceJSONRejectsInvalid(t *testing.T) {
	_, err := ReadInstanceJSON(strings.NewReader(`{"m":0,"jobs":[]}`))
	if !errors.Is(err, ErrNoMachines) {
		t.Fatalf("got %v, want ErrNoMachines", err)
	}
	_, err = ReadInstanceJSON(strings.NewReader(`{not json`))
	if err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestJobHelpers(t *testing.T) {
	j := Job{ID: 3, Procs: 4, Len: 5}
	if j.Work() != 20 {
		t.Errorf("Work = %d", j.Work())
	}
	if j.Label() != "J3" {
		t.Errorf("Label = %q", j.Label())
	}
	j.Name = "conv"
	if j.Label() != "conv" {
		t.Errorf("Label = %q", j.Label())
	}
}

func TestReservationHelpers(t *testing.T) {
	r := Reservation{ID: 2, Procs: 3, Start: 10, Len: 5}
	if r.End() != 15 {
		t.Errorf("End = %v", r.End())
	}
	inf := Reservation{ID: 0, Procs: 1, Start: 10, Len: Infinity}
	if inf.End() != Infinity {
		t.Errorf("infinite End = %v", inf.End())
	}
}
