package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestHandlerSurface checks the three mounts: /metrics parses strictly,
// /healthz tracks the readiness func, and pprof answers.
func TestHandlerSurface(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("h_total", "h").Add(3)
	var ready atomic.Bool
	ready.Store(true)
	srv := httptest.NewServer(Handler(r, ready.Load, nil))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if ctype != ContentType {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}
	exp, err := ParseExposition([]byte(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if v, ok := exp.Value("h_total", nil); !ok || v != 3 {
		t.Errorf("h_total = %v, %v", v, ok)
	}

	if code, body, _ := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz ready = %d %q", code, body)
	}
	ready.Store(false)
	if code, _, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz draining = %d", code)
	}

	if code, _, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ index = %d", code)
	}
}

// TestHandlerWithWarn checks the degraded state: ready + warning answers
// 200 with the warning body (serving, but impaired); unready still wins
// with 503; an empty warning is plain "ok".
func TestHandlerWithWarn(t *testing.T) {
	r := NewRegistry()
	var ready atomic.Bool
	ready.Store(true)
	var msg atomic.Value
	msg.Store("")
	srv := httptest.NewServer(Handler(r, ready.Load, func() string {
		return msg.Load().(string)
	}))
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get(); code != 200 || body != "ok\n" {
		t.Errorf("healthy = %d %q", code, body)
	}
	msg.Store("wal: replay dropped 1 torn + 0 corrupt records (12B)")
	if code, body := get(); code != 200 || body != "warning: wal: replay dropped 1 torn + 0 corrupt records (12B)\n" {
		t.Errorf("degraded = %d %q", code, body)
	}
	ready.Store(false)
	if code, _ := get(); code != http.StatusServiceUnavailable {
		t.Errorf("draining while degraded = %d, want 503", code)
	}
}
