package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestObscheckAgainstLiveHandler drives the built checker binary against
// a live obs.Handler: a healthy registry passes, a required family that
// is not exported fails with its name in the error.
func TestObscheckAgainstLiveHandler(t *testing.T) {
	bin := t.TempDir() + "/obscheck"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	reg := obs.NewRegistry()
	reg.NewCounter("demo_ops_total", "Ops.").Add(3)
	reg.NewGauge("demo_depth", "Depth.", obs.L("shard", "0")).Set(7)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: obs.Handler(reg, func() bool { return true }, nil)}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String() + "/metrics"

	out, err := exec.Command(bin, "-url", url, "-require", "demo_ops_total,demo_depth").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "obscheck: ok") {
		t.Fatalf("healthy scrape: %v\n%s", err, out)
	}

	out, err = exec.Command(bin, "-url", url, "-require", "demo_missing_total").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(out), "demo_missing_total") {
		t.Fatalf("missing family: err=%v\n%s", err, out)
	}

	// Malformed input on stdin must fail the parse, not be glossed over.
	cmd := exec.Command(bin)
	cmd.Stdin = bytes.NewReader([]byte("demo_ops_total 3")) // no trailing newline
	out, err = cmd.CombinedOutput()
	if !errors.As(err, &exit) || !strings.Contains(string(out), "malformed") {
		t.Fatalf("malformed exposition: err=%v\n%s", err, out)
	}
}
