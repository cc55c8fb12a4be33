package flight

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// statusView is the JSON /debug/flight serves: the node's health
// judgment, the journal tail, the newest sampled admission traces, and
// the bundle inventory.
type statusView struct {
	State   Health            `json:"state"`
	Warning string            `json:"warning,omitempty"`
	Counts  map[string]uint64 `json:"counts"`
	Events  []Event           `json:"events"`
	Traces  any               `json:"traces,omitempty"`
	Bundles []string          `json:"bundles,omitempty"`
	Latest  string            `json:"latest,omitempty"`
}

// Handler serves the flight surface:
//
//	GET  /debug/flight                      health + journal and trace tails (+?n=)
//	POST /debug/flight/capture?reason=...   on-demand bundle; {"bundle": name}
//	GET  /debug/flight/bundle/<name>        bundle file list (JSON)
//	GET  /debug/flight/bundle/<name>/<file> one bundle file
//
// Mount it at /debug/flight and /debug/flight/ on the observability
// mux (resdsrv does this when -flightdir or -obs is set).
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/flight", r.serveStatus)
	mux.HandleFunc("/debug/flight/capture", r.serveCapture)
	mux.HandleFunc("/debug/flight/bundle/", r.serveBundle)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (r *Recorder) serveStatus(w http.ResponseWriter, req *http.Request) {
	n := 128
	if q := req.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil {
			n = v
		}
	}
	view := statusView{
		State:   r.State(),
		Warning: r.Warning(),
		Counts: map[string]uint64{
			Info.String():  r.journal.Count(Info),
			Warn.String():  r.journal.Count(Warn),
			Error.String(): r.journal.Count(Error),
		},
		Events:  r.journal.Tail(n),
		Bundles: r.Bundles(),
	}
	if src := r.src.Load(); src != nil && src.Traces != nil {
		view.Traces = src.Traces(n)
	}
	view.Latest = ""
	if len(view.Bundles) > 0 {
		view.Latest = view.Bundles[len(view.Bundles)-1]
	}
	writeJSON(w, view)
}

func (r *Recorder) serveCapture(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	reason := req.URL.Query().Get("reason")
	if reason == "" {
		reason = "on-demand"
	}
	name, err := r.Capture(reason)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]string{"bundle": name})
}

// validBundlePart accepts exactly the names writeBundle mints and the
// flat file names it writes — anything with a path separator, a
// leading dot, or an empty segment is refused before touching the
// filesystem.
func validBundlePart(s string) bool {
	if s == "" || strings.HasPrefix(s, ".") {
		return false
	}
	return !strings.ContainsAny(s, `/\`)
}

func (r *Recorder) serveBundle(w http.ResponseWriter, req *http.Request) {
	if r.cfg.Dir == "" {
		http.Error(w, "bundle capture disabled", http.StatusNotFound)
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, "/debug/flight/bundle/")
	name, file, _ := strings.Cut(rest, "/")
	if !strings.HasPrefix(name, bundlePrefix) || !validBundlePart(name) {
		http.Error(w, "no such bundle", http.StatusNotFound)
		return
	}
	if file == "" {
		entries, err := os.ReadDir(filepath.Join(r.cfg.Dir, name))
		if err != nil {
			http.Error(w, "no such bundle", http.StatusNotFound)
			return
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, e.Name())
			}
		}
		writeJSON(w, map[string]any{"bundle": name, "files": files})
		return
	}
	if !validBundlePart(file) {
		http.Error(w, "no such file", http.StatusNotFound)
		return
	}
	data, err := os.ReadFile(filepath.Join(r.cfg.Dir, name, file))
	if err != nil {
		http.Error(w, "no such file", http.StatusNotFound)
		return
	}
	switch {
	case strings.HasSuffix(file, ".json"):
		w.Header().Set("Content-Type", "application/json")
	case strings.HasSuffix(file, ".txt") || strings.HasSuffix(file, ".prom"):
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.Write(data)
}
