package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryEndToEnd exercises every instrument kind through a full
// write-then-parse round trip: the strict parser must accept everything
// the writer emits, and the parsed values must match the instruments.
func TestRegistryEndToEnd(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Operations.", L("kind", "reserve"))
	c.Add(41)
	c.Inc()
	r.NewCounter("test_ops_total", "Operations.", L("kind", "cancel")).Add(7)
	g := r.NewGauge("test_depth", "Queue depth.")
	g.Add(12)
	g.Add(-2)
	r.CounterFunc("test_fn_total", "Func counter.", func() uint64 { return 99 })
	r.GaugeFunc("test_ratio", "Func gauge.", func() float64 { return 0.25 }, L("shard", "0"))
	h := r.NewHistogram("test_latency_ns", "Latency.")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	r.Collect(KindGauge, "test_dyn", "Dynamic.", func(e Emitter) {
		e.Emit(1, L("tenant", "acme"))
		e.Emit(2, L("tenant", "zeta"))
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseExposition of own output:\n%s\nerr: %v", buf.String(), err)
	}

	if v, ok := exp.Value("test_ops_total", map[string]string{"kind": "reserve"}); !ok || v != 42 {
		t.Errorf("ops_total{reserve} = %v, %v", v, ok)
	}
	if v, ok := exp.Value("test_depth", nil); !ok || v != 10 {
		t.Errorf("depth = %v, %v", v, ok)
	}
	if v, ok := exp.Value("test_fn_total", nil); !ok || v != 99 {
		t.Errorf("fn_total = %v, %v", v, ok)
	}
	if v, ok := exp.Value("test_ratio", map[string]string{"shard": "0"}); !ok || v != 0.25 {
		t.Errorf("ratio = %v, %v", v, ok)
	}
	if v, ok := exp.Value("test_dyn", map[string]string{"tenant": "zeta"}); !ok || v != 2 {
		t.Errorf("dyn{zeta} = %v, %v", v, ok)
	}
	f := exp.Family("test_latency_ns")
	if f == nil || f.Type != "summary" {
		t.Fatalf("latency family = %+v", f)
	}
	p50, ok := exp.Value("test_latency_ns", map[string]string{"quantile": "0.5"})
	if !ok {
		t.Fatal("no p50 sample")
	}
	if p50 < 500 || p50 >= 1024 {
		t.Errorf("p50 = %v, want in [500, 1024)", p50)
	}
	p99, _ := exp.Value("test_latency_ns", map[string]string{"quantile": "0.99"})
	if p50 > p99 {
		t.Errorf("p50 %v > p99 %v", p50, p99)
	}
	cnt := 0.0
	for _, s := range f.Samples {
		if s.Name == "test_latency_ns_count" {
			cnt = s.Value
		}
	}
	if cnt != 1000 {
		t.Errorf("latency count = %v, want 1000", cnt)
	}
}

// TestNilRegistryIsNoop: every constructor on a nil registry returns a
// working instrument and nothing is scraped.
func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.NewCounter("x_total", "x").Inc()
	r.NewGauge("x", "x").Add(5)
	r.NewHistogram("x_ns", "x").Observe(10)
	r.CounterFunc("y_total", "y", func() uint64 { return 1 })
	r.GaugeFunc("y", "y", func() float64 { return 1 })
	r.Collect(KindGauge, "z", "z", func(e Emitter) { e.Emit(1) })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry scrape: %q, %v", buf.String(), err)
	}
}

// TestLabelEscaping: hostile label values survive a write/parse round
// trip byte for byte.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	hostile := "a\"b\\c\nd"
	r.NewGauge("esc", "Escape test.", L("v", hostile)).Add(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	f := exp.Family("esc")
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("family = %+v", f)
	}
	if got := f.Samples[0].Labels["v"]; got != hostile {
		t.Errorf("label round trip = %q, want %q", got, hostile)
	}
}

// TestParserRejections: each malformed document must fail.
func TestParserRejections(t *testing.T) {
	cases := map[string]string{
		"no trailing newline":   "# TYPE a gauge\na 1",
		"sample before TYPE":    "a 1\n",
		"blank line":            "# TYPE a gauge\n\na 1\n",
		"second TYPE":           "# TYPE a gauge\n# TYPE a gauge\na 1\n",
		"HELP after TYPE":       "# TYPE a gauge\n# HELP a x\na 1\n",
		"unknown type":          "# TYPE a pie\na 1\n",
		"sample outside family": "# TYPE a gauge\nb 1\n",
		"count on gauge":        "# TYPE a gauge\na_count 1\n",
		"quantile on counter":   "# TYPE a counter\na{quantile=\"0.5\"} 1\n",
		"negative counter":      "# TYPE a counter\na -1\n",
		"duplicate series":      "# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n",
		"bad value":             "# TYPE a gauge\na one\n",
		"unterminated labels":   "# TYPE a gauge\na{x=\"1\" 1\n",
		"unquoted label":        "# TYPE a gauge\na{x=1} 1\n",
		"bad escape":            "# TYPE a gauge\na{x=\"\\t\"} 1\n",
		"trailing comma":        "# TYPE a gauge\na{x=\"1\",} 1\n",
		"duplicate label":       "# TYPE a gauge\na{x=\"1\",x=\"2\"} 1\n",
		"stray comment":         "# TYPE a gauge\n# EOF\na 1\n",
		"dangling HELP":         "# HELP a x\na 1\n",
		"bad metric name":       "# TYPE 1a gauge\n1a 1\n",
	}
	for name, doc := range cases {
		if _, err := ParseExposition([]byte(doc)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, doc)
		}
	}
	// And the valid shapes near those edges still parse.
	good := "# HELP a A gauge.\n# TYPE a gauge\na 1\na{x=\"1\"} 2\n" +
		"# TYPE b summary\nb{quantile=\"0.5\"} 3\nb_count 4\nb_sum 5\n" +
		"# TYPE c counter\nc +Inf\n"
	if _, err := ParseExposition([]byte(good)); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}

// TestFormatValue pins the exposition value grammar.
func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:            "0",
		42:           "42",
		1e6:          "1000000",
		0.25:         "0.25",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

// TestDuplicateRegistrationPanics: the same series registered twice is a
// startup panic, not a scrape-time surprise.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "d", L("a", "1"))
	mustPanic(t, "same series", func() { r.NewCounter("dup_total", "d", L("a", "1")) })
	mustPanic(t, "kind conflict", func() { r.NewGauge("dup_total", "d") })
	mustPanic(t, "help conflict", func() { r.NewCounter("dup_total", "other", L("a", "2")) })
	mustPanic(t, "bad name", func() { r.NewCounter("1bad", "d") })
	mustPanic(t, "bad label", func() { r.NewCounter("ok_total", "d", L("1bad", "x")) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// TestConcurrentScrape hammers instruments from many goroutines while
// scraping; run under -race this is the lock-freedom proof, and every
// scrape must still parse.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cc_total", "c")
	h := r.NewHistogram("ch_ns", "h")
	g := r.NewGauge("cg", "g")
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		started.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(seed + i%1000)
				if i == 0 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(int64(w))
	}
	started.Wait() // every writer has hit every instrument at least once
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if _, err := ParseExposition(buf.Bytes()); err != nil {
			t.Fatalf("scrape %d does not parse: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if c.Value() == 0 {
		t.Error("counter never advanced")
	}
}

// TestSummarySuffixOrdering: the writer emits quantile lines before
// _count/_sum and all under one TYPE header.
func TestSummarySuffixOrdering(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("s_ns", "s").Observe(5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE") != 1 {
		t.Errorf("want one TYPE line:\n%s", out)
	}
	if strings.Index(out, `quantile="0.99"`) > strings.Index(out, "s_ns_count") {
		t.Errorf("quantiles after _count:\n%s", out)
	}
}
