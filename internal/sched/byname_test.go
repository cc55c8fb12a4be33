package sched

import "testing"

func TestByNameResolvesAll(t *testing.T) {
	for _, name := range Names() {
		sc, err := ByNameOn(name, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc == nil {
			t.Fatalf("%s: nil scheduler", name)
		}
		// The canonical name of the scheduler should be resolvable too
		// (the "lsrc" alias resolves to "lsrc-fifo").
		if _, err := ByNameOn(sc.Name(), ""); err != nil {
			t.Fatalf("canonical name %q not registered: %v", sc.Name(), err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByNameOn("quantum-annealer", ""); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestByNameReturnsFreshValues(t *testing.T) {
	a, _ := ByNameOn("lsrc-lpt", "")
	b, _ := ByNameOn("lsrc-lpt", "")
	la, lb := a.(*LSRC), b.(*LSRC)
	if la == lb {
		t.Fatal("ByNameOn returned a shared pointer")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("expected 12 names, got %d: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("names not sorted")
		}
	}
}
