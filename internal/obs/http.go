package obs

import (
	"net/http"
	"net/http/pprof"
)

// Handler mounts the observability surface on one mux:
//
//	/metrics        Prometheus text exposition of reg
//	/healthz        readiness probe: 200 while ready() is true, 503 after
//	/debug/pprof/*  the standard runtime profiles
//
// ready may be nil, in which case /healthz always answers 200. warn, when
// not nil, adds a degraded state between healthy and unready: while
// ready() holds but warn() reports a message, /healthz still answers 200
// (the process serves; restarting it would not help) with the message as
// the body instead of "ok", so probes and humans see the degradation.
// The handler is what `resdsrv -obs ADDR` serves, with WAL damage, the
// watchdog's health and the SLO alerts behind warn; tests mount it on
// httptest servers to scrape in-process.
func Handler(reg *Registry, ready func() bool, warn func() string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			panic(http.ErrAbortHandler)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if ready != nil && !ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if warn != nil {
			if msg := warn(); msg != "" {
				w.Write([]byte("warning: " + msg + "\n"))
				return
			}
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
