package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliflag"
	"repro/internal/resd"
	"repro/internal/tenant"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "quotas.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadQuotasResolvesCapacity(t *testing.T) {
	path := writeSpec(t, `{
		"mode": "hard",
		"tenants": [{"name": "etl", "share": 0.25}]
	}`)
	// 4 shards × (64 − ⌊0.25·64⌋) × 1000 = 4 × 48 × 1000.
	reg, err := loadQuotas(path, 4, 64, 0.25, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Capacity() != 4*48*1000 {
		t.Fatalf("capacity %d", reg.Capacity())
	}
	if u := reg.Usage("etl"); u.Budget != 4*48*1000/4 {
		t.Fatalf("etl budget = %d, want 48000 (0.25 of the capacity)", u.Budget)
	}
}

func TestLoadQuotasFlagErrors(t *testing.T) {
	if reg, err := loadQuotas("", 4, 64, 0.5, 1000); reg != nil || err != nil {
		t.Fatalf("empty path: reg=%v err=%v, want nil/nil", reg, err)
	}
	if _, err := loadQuotas(filepath.Join(t.TempDir(), "missing.json"), 4, 64, 0.5, 1000); !errors.Is(err, cliflag.ErrFlag) {
		t.Fatalf("missing file err = %v, want ErrFlag", err)
	}
	for _, body := range []string{`{"mode": "gentle"}`, `{"mode": "soft"}`} {
		bad := writeSpec(t, body)
		if _, err := loadQuotas(bad, 4, 64, 0.5, 1000); !errors.Is(err, cliflag.ErrFlag) || !errors.Is(err, tenant.ErrConfig) {
			t.Fatalf("spec %s err = %v, want ErrFlag wrapping ErrConfig", body, err)
		}
	}
	typo := writeSpec(t, `{"tennants": []}`)
	if _, err := loadQuotas(typo, 4, 64, 0.5, 1000); !errors.Is(err, cliflag.ErrFlag) {
		t.Fatalf("typo'd key err = %v, want ErrFlag", err)
	}
	ok := writeSpec(t, `{"mode": "hard"}`)
	if _, err := loadQuotas(ok, 4, 64, 1.0, 1000); !errors.Is(err, cliflag.ErrFlag) {
		t.Fatalf("α=1 err = %v, want ErrFlag (no reservable prefix)", err)
	}
}

// TestShutdownFlushLines drives a traced service and checks the final
// stats line — the one emitted after the drain — carries the lifetime
// totals, and that the slow-request line renders every stage.
func TestShutdownFlushLines(t *testing.T) {
	svc, err := resd.New(resd.Config{M: 8, Obs: &resd.ObsConfig{TraceSample: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	r, err := svc.Admit(resd.Request{Ready: 0, Q: 4, Dur: 10, Deadline: resd.NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Admit(resd.Request{Ready: 0, Q: 8, Dur: 10, Deadline: 0}); err == nil {
		t.Fatal("deadline rejection expected")
	}
	if err := svc.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	line := finalLine(svc)
	for _, want := range []string{"admitted=1", "cancelled=1", "deadline=1", "traces=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("final line %q missing %q", line, want)
		}
	}

	traces := svc.Traces(1)
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	slow := slowLine(traces[0])
	for _, want := range []string{"slow request", "outcome=rejected-deadline", "route=", "queue=", "batch="} {
		if !strings.Contains(slow, want) {
			t.Errorf("slow line %q missing %q", slow, want)
		}
	}

	// traces= is a lifetime total too: a run longer than the ring keeps
	// only the newest records, and the line still counts every sample.
	long, err := resd.New(resd.Config{M: 8, Obs: &resd.ObsConfig{TraceSample: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer long.Close()
	const n = resd.TraceRingLen + 6
	for i := 0; i < n; i++ {
		if _, err := long.Admit(resd.Request{Ready: 0, Q: 1, Dur: 1, Deadline: resd.NoDeadline}); err != nil {
			t.Fatal(err)
		}
	}
	if held := len(long.Traces(0)); held != resd.TraceRingLen {
		t.Fatalf("ring holds %d traces, want %d", held, resd.TraceRingLen)
	}
	if want := fmt.Sprintf("traces=%d", n); !strings.Contains(finalLine(long), want) {
		t.Errorf("final line %q, want %s (%d sampled through a %d-record ring)", finalLine(long), want, n, resd.TraceRingLen)
	}
}
