package stats

import "testing"

// push is a test shorthand: one-element vectors are all the semantics
// need; width > 1 is covered explicitly by TestSnapRingWidth.
func push(r *SnapRing, at int64, v uint64) { r.Push(at, []uint64{v}) }

func delta1(t *testing.T, r *SnapRing, window int64) (uint64, int64, bool) {
	t.Helper()
	dst := []uint64{0xdead}
	span, ok := r.Delta(window, dst)
	if !ok && dst[0] != 0xdead {
		t.Fatalf("Delta wrote dst despite ok=false")
	}
	return dst[0], span, ok
}

func TestSnapRingEmptyAndSingle(t *testing.T) {
	r := NewSnapRing(8, 1)
	if _, _, ok := delta1(t, r, 100); ok {
		t.Fatal("empty ring answered a window")
	}
	push(r, 10, 5)
	if _, _, ok := delta1(t, r, 100); ok {
		t.Fatal("single snapshot answered a window — a delta needs two")
	}
	push(r, 20, 9)
	d, span, ok := delta1(t, r, 100)
	if !ok || d != 4 || span != 10 {
		t.Fatalf("got d=%d span=%d ok=%v, want 4/10/true", d, span, ok)
	}
}

func TestSnapRingWindowSelection(t *testing.T) {
	r := NewSnapRing(16, 1)
	// Snapshots every 10 ticks, counter climbing 3 per period.
	for i := int64(0); i < 10; i++ {
		push(r, i*10, uint64(i*3))
	}
	// newest at=90 val=27; window 30 → anchor at ≤ 60 → exactly at=60 val=18.
	d, span, ok := delta1(t, r, 30)
	if !ok || d != 9 || span != 30 {
		t.Fatalf("window 30: d=%d span=%d ok=%v, want 9/30/true", d, span, ok)
	}
	// A window no snapshot is old enough for falls back to the oldest,
	// reporting the true span.
	d, span, ok = delta1(t, r, 1000)
	if !ok || d != 27 || span != 90 {
		t.Fatalf("window 1000: d=%d span=%d ok=%v, want 27/90/true", d, span, ok)
	}
	// A window shorter than the snapshot period still answers — from the
	// adjacent snapshot — with the span honest about the coverage.
	d, span, ok = delta1(t, r, 3)
	if !ok || d != 3 || span != 10 {
		t.Fatalf("window 3: d=%d span=%d ok=%v, want 3/10/true", d, span, ok)
	}
}

func TestSnapRingWraparound(t *testing.T) {
	r := NewSnapRing(4, 1)
	for i := int64(0); i < 100; i++ {
		push(r, i*10, uint64(i))
	}
	if r.n != 4 {
		t.Fatalf("%d retained after overfilling a 4-slot ring", r.n)
	}
	// Retained: at 960..990. The widest answerable window spans the ring.
	d, span, ok := delta1(t, r, 1<<40)
	if !ok || d != 3 || span != 30 {
		t.Fatalf("wrapped ring: d=%d span=%d ok=%v, want 3/30/true", d, span, ok)
	}
	d, span, ok = delta1(t, r, 10)
	if !ok || d != 1 || span != 10 {
		t.Fatalf("wrapped ring window 10: d=%d span=%d ok=%v, want 1/10/true", d, span, ok)
	}
}

func TestSnapRingClockRegression(t *testing.T) {
	r := NewSnapRing(8, 1)
	push(r, 100, 10)
	push(r, 200, 20)
	push(r, 300, 30)
	// Duplicate timestamp: overwrites the newest in place.
	push(r, 300, 35)
	if r.n != 3 {
		t.Fatalf("%d retained after duplicate-timestamp push, want 3", r.n)
	}
	d, span, ok := delta1(t, r, 100)
	if !ok || d != 15 || span != 100 {
		t.Fatalf("after duplicate: d=%d span=%d ok=%v, want 15/100/true", d, span, ok)
	}
	// Clock steps backwards past two retained snapshots: they are
	// dropped so timestamps stay strictly increasing.
	push(r, 150, 40)
	if r.n != 2 {
		t.Fatalf("%d retained after regression to 150, want 2 (100 and 150)", r.n)
	}
	d, span, ok = delta1(t, r, 50)
	if !ok || d != 30 || span != 50 {
		t.Fatalf("after regression: d=%d span=%d ok=%v, want 30/50/true", d, span, ok)
	}
	// The ring keeps working normally afterwards.
	push(r, 250, 45)
	d, span, ok = delta1(t, r, 100)
	if !ok || d != 5 || span != 100 {
		t.Fatalf("post-regression push: d=%d span=%d ok=%v, want 5/100/true", d, span, ok)
	}
}

func TestSnapRingCounterResetClamps(t *testing.T) {
	r := NewSnapRing(8, 1)
	push(r, 10, 100)
	push(r, 20, 3) // counter reset: cumulative value went backwards
	d, _, ok := delta1(t, r, 100)
	if !ok || d != 0 {
		t.Fatalf("reset delta: d=%d ok=%v, want 0/true (clamped)", d, ok)
	}
}

func TestSnapRingZeroTraffic(t *testing.T) {
	r := NewSnapRing(8, 2)
	for i := int64(0); i < 5; i++ {
		r.Push(i*10, []uint64{7, 7}) // counters frozen: no traffic at all
	}
	dst := make([]uint64, 2)
	span, ok := r.Delta(20, dst)
	if !ok || dst[0] != 0 || dst[1] != 0 || span != 20 {
		t.Fatalf("zero traffic: dst=%v span=%d ok=%v, want [0 0]/20/true", dst, span, ok)
	}
}

func TestSnapRingWidth(t *testing.T) {
	r := NewSnapRing(4, 3)
	if r.width != 3 {
		t.Fatalf("width=%d, want 3", r.width)
	}
	r.Push(1, []uint64{1, 2, 3})
	r.Push(2, []uint64{4, 6, 3})
	dst := make([]uint64, 3)
	span, ok := r.Delta(10, dst)
	if !ok || span != 1 || dst[0] != 3 || dst[1] != 4 || dst[2] != 0 {
		t.Fatalf("got dst=%v span=%d ok=%v", dst, span, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width-mismatched Push did not panic")
		}
	}()
	r.Push(3, []uint64{1})
}

func TestSnapRingMinCapacity(t *testing.T) {
	r := NewSnapRing(0, 1) // raised to 2: a delta needs two snapshots
	push(r, 1, 1)
	push(r, 2, 5)
	push(r, 3, 9)
	d, span, ok := delta1(t, r, 100)
	if !ok || d != 4 || span != 1 {
		t.Fatalf("capacity-2 ring: d=%d span=%d ok=%v, want 4/1/true", d, span, ok)
	}
}
