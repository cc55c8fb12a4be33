package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Bundle file names, in the order manifest.json lists them. A bundle
// directory is written complete into a hidden temp dir and renamed
// into place, so a name that appears in Config.Dir is always whole.
const (
	bundleManifest   = "manifest.json"
	bundleJournal    = "journal.json"
	bundleGoroutines = "goroutines.txt"
	bundleHeap       = "heap.pprof"
	bundleMetrics    = "metrics.prom"
	bundleTraces     = "traces.json"
	bundleNode       = "node.json"
	bundleConfig     = "config.json"
)

const bundlePrefix = "flight-"

// manifest is the bundle's self-description (manifest.json).
type manifest struct {
	Name    string   `json:"name"`
	Reason  string   `json:"reason"`
	Wall    string   `json:"wall"`
	State   Health   `json:"state"`
	Warning string   `json:"warning,omitempty"`
	Go      string   `json:"go"`
	Files   []string `json:"files"`
}

// Capture writes an on-demand diagnostic bundle and returns its name
// (the directory under Config.Dir). Unlike watchdog-triggered
// captures it is never rate-limited — an operator asking for evidence
// gets it. Fails when bundling is disabled (no Dir).
func (r *Recorder) Capture(reason string) (string, error) {
	if r == nil || r.cfg.Dir == "" {
		return "", fmt.Errorf("flight: bundle capture disabled (no directory configured)")
	}
	return r.writeBundle(reason, r.State(), r.Warning())
}

// AutoCapture writes a bundle for an automatic trigger outside the
// watchdog (resdsrv's SLO page hook), at the wall clock's now. It
// shares the watchdog's rate limit: at most one automatic bundle per
// BundleMinInterval, whoever asks. It returns the bundle's name, or ""
// when bundling is disabled or the capture was rate-limited or failed
// (both journaled).
func (r *Recorder) AutoCapture(reason string) string {
	if r == nil {
		return ""
	}
	return r.autoCapture(time.Now(), reason, r.State(), r.Warning())
}

// autoCapture is the rate-limited trigger path: a flapping rule cannot
// fill the disk, and a failure is journaled, never fatal. The limit is
// measured on the trigger's clock: Judge hands in the instant it judges
// at, so the watchdog stays a function of its instants. Judge calls it
// before it publishes the judgment that triggered it, so the state and
// warning the manifest records are handed in.
func (r *Recorder) autoCapture(now time.Time, reason string, state Health, warning string) string {
	if r.cfg.Dir == "" {
		return ""
	}
	r.bundleMu.Lock()
	limited := !r.lastAuto.IsZero() && now.Sub(r.lastAuto) < BundleMinInterval
	if !limited {
		r.lastAuto = now
	}
	r.bundleMu.Unlock()
	if limited {
		r.rateLimited.Add(1)
		r.journal.Record(Info, "flight", -1, "bundle capture rate-limited",
			KV{"reason", reason}, KV{"min_interval", BundleMinInterval.String()})
		return ""
	}
	name, err := r.writeBundle(reason, state, warning)
	if err != nil {
		r.journal.Record(Error, "flight", -1, "bundle capture failed",
			KV{"reason", reason}, KV{"err", err.Error()})
	}
	return name
}

// writeBundle assembles one bundle: every section into a temp dir,
// one atomic rename, then retention pruning. Sections are best-effort
// — a section that cannot be gathered is skipped rather than sinking
// the whole capture (the manifest lists what made it).
func (r *Recorder) writeBundle(reason string, state Health, warning string) (string, error) {
	r.bundleMu.Lock()
	defer r.bundleMu.Unlock()
	r.bundleSeq++
	name := fmt.Sprintf("%s%d-%04d", bundlePrefix, time.Now().UnixMilli(), r.bundleSeq)
	tmp := filepath.Join(r.cfg.Dir, ".tmp-"+name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		r.failed.Add(1)
		return "", fmt.Errorf("flight: bundle: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after the rename

	var files []string
	writeFile := func(fname string, data []byte, err error) {
		if err != nil {
			return
		}
		if werr := os.WriteFile(filepath.Join(tmp, fname), data, 0o644); werr == nil {
			files = append(files, fname)
		}
	}
	writeJSON := func(fname string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		writeFile(fname, append(data, '\n'), err)
	}

	writeJSON(bundleJournal, r.journal.Tail(0))
	if p := pprof.Lookup("goroutine"); p != nil {
		var b strings.Builder
		if err := p.WriteTo(&b, 2); err == nil {
			writeFile(bundleGoroutines, []byte(b.String()), nil)
		}
	}
	if p := pprof.Lookup("heap"); p != nil {
		var b strings.Builder
		if err := p.WriteTo(&b, 0); err == nil {
			writeFile(bundleHeap, []byte(b.String()), nil)
		}
	}
	if reg := r.cfg.Registry; reg != nil {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err == nil {
			writeFile(bundleMetrics, []byte(b.String()), nil)
		}
	}
	if src := r.src.Load(); src != nil {
		if src.Traces != nil {
			writeJSON(bundleTraces, src.Traces(0))
		}
		if src.Node != nil {
			writeJSON(bundleNode, src.Node())
		}
	}
	if v := r.cfgInfo.Load(); v != nil {
		writeJSON(bundleConfig, v)
	}
	m := manifest{
		Name:    name,
		Reason:  reason,
		Wall:    time.Now().UTC().Format(time.RFC3339Nano),
		State:   state,
		Warning: warning,
		Go:      runtime.Version(),
		Files:   append(files, bundleManifest),
	}
	writeJSON(bundleManifest, m)

	final := filepath.Join(r.cfg.Dir, name)
	if err := os.Rename(tmp, final); err != nil {
		r.failed.Add(1)
		return "", fmt.Errorf("flight: bundle: %w", err)
	}
	r.written.Add(1)
	r.journal.Record(Info, "flight", -1, "diagnostic bundle written",
		KV{"bundle", name}, KV{"reason", reason})
	r.prune()
	return name, nil
}

// prune keeps the newest BundleKeep bundles: the oldest (and any temp
// debris a crash left) are removed. Bundle names embed a millisecond stamp with
// a fixed digit count, so lexicographic order is age order. Runs under
// bundleMu.
func (r *Recorder) prune() {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), ".tmp-") {
			os.RemoveAll(filepath.Join(r.cfg.Dir, e.Name()))
			continue
		}
		if strings.HasPrefix(e.Name(), bundlePrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for len(names) > BundleKeep {
		os.RemoveAll(filepath.Join(r.cfg.Dir, names[0]))
		names = names[1:]
	}
}

// Bundles lists the completed bundle names in Config.Dir, oldest
// first. Empty when bundling is disabled.
func (r *Recorder) Bundles() []string {
	if r == nil || r.cfg.Dir == "" {
		return nil
	}
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), bundlePrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}
