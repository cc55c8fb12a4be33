package main

import (
	"fmt"

	"repro/internal/wal"
)

// Shape shared by every service workload, so their numbers compare.
const (
	machineM   = 256
	shards     = 4
	batch      = 64
	alpha      = 0.25
	backend    = "tree"
	placement  = "least-loaded"
	callers    = 16 // goroutines in both timed phases
	pinnedGOGC = 100

	// poolPerCaller is how many generated requests each caller cycles
	// through. Every admission is cancelled again, so a repeat meets the
	// state its first use met.
	poolPerCaller = 4096

	// phaseWindows is how many windows a timed phase is cut into; the
	// reported figure is the best decile over them (stats.go, bestDecile).
	// lsrc-batch, whose one call takes milliseconds, uses lsrcWindows so a
	// window holds some eighty calls.
	phaseWindows = 64
	lsrcWindows  = 32

	// minPerWindow is the fewest latency samples a window's median is
	// taken from.
	minPerWindow = 32

	// maxWindows caps how many windows of at least minSamples the traced
	// run's paced phase is split into for its percentiles.
	maxWindows = 8

	// setupReps is how many times a run builds its state; setup_s and
	// heap_mb are medians over them.
	setupReps = 3

	// serialSamples is how many sampled requests the traced run's serial
	// section replays through every rung.
	serialSamples = 1500
)

// spec is one named workload, a traffic mix with every parameter pinned. Later
// PRs are judged with these values and never re-tune them.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Serial is how many sampled requests the traced run's serial section
	// replays through every rung (serialSamples unless scaled down).
	Serial int `json:"serial"`

	// Service workloads.
	Live        int     `json:"live,omitempty"`         // admissions attempted at preload
	HorizonBits int     `json:"horizon_bits,omitempty"` // ready ~ U[0, 2^bits)
	WidthHi     int     `json:"width_hi,omitempty"`     // q ~ U[1, WidthHi]
	DurLo       int     `json:"dur_lo,omitempty"`       // dur ~ U[DurLo, DurHi]
	DurHi       int     `json:"dur_hi,omitempty"`
	WideShare   float64 `json:"wide_share,omitempty"` // timed requests with q ~ U[WideLo, WideHi]
	WideLo      int     `json:"wide_lo,omitempty"`
	WideHi      int     `json:"wide_hi,omitempty"`
	Wire        bool    `json:"wire,omitempty"`    // through reswire over loopback
	Durable     bool    `json:"durable,omitempty"` // WAL + quotas + obs armed
	// Sync is the WAL's flush policy. The bounded run flushes every batch
	// turn to the OS and does not fsync: an fsync on this sandbox's disk
	// takes what the host decides (150 us for hours, then ten times that
	// for three minutes), and a workload that waits for it measures the
	// host. The traced run fsyncs every batch turn (wal.SyncBatch), the
	// production policy, for the wal.* ledger.
	Sync        wal.SyncMode `json:"sync,omitempty"`
	Deadline    int64        `json:"deadline,omitempty"` // Deadline = Ready + this (0 = none)
	Tenants     int          `json:"tenants,omitempty"`
	Zipf        float64      `json:"zipf,omitempty"`
	CancelLag   int          `json:"cancel_lag,omitempty"`  // an admission is cancelled this many of its caller's admissions later
	QueryShare  float64      `json:"query_share,omitempty"` // of stream items; the rest are admissions
	StatsShare  float64      `json:"stats_share,omitempty"`
	SnapEvery   int          `json:"snap_every,omitempty"`
	TraceSample int          `json:"trace_sample,omitempty"`
	// PacedShare sets the open-loop phase's rate: this share of the stream
	// items per second the run's own saturation phase just served. A rate
	// pinned in items per second would sit at a different utilisation
	// whenever the host runs slower, and the sandbox's speed drifts by a
	// third within the hour; a pinned share keeps the queueing regime.
	PacedShare float64 `json:"paced_share,omitempty"`
	// LimitUs is the latency limit gen.over_limit_share counts against.
	LimitUs float64 `json:"limit_us,omitempty"`

	// lsrc-batch.
	LSRCM        int     `json:"lsrc_m,omitempty"`
	Jobs         int     `json:"jobs,omitempty"`
	MaxWidthFrac float64 `json:"max_width_frac,omitempty"`
	NRes         int     `json:"nres,omitempty"`
	ResAlpha     float64 `json:"res_alpha,omitempty"`
	ResHorizon   int64   `json:"res_horizon,omitempty"`
	Instances    int     `json:"instances,omitempty"` // distinct instances cycled through
}

func (w *spec) service() bool { return w.Jobs == 0 }

// workloads lists the five workloads in the order a full set runs them.
var workloads = []spec{
	{
		Name: "admit-small",
		Why:  "tiny index, nothing else armed: the resd shard handoff (channel send, loop wake-up, group commit, reply) does most of the work",
		Live: 512, HorizonBits: 15, WidthHi: 64, DurLo: 20, DurHi: 100,
		PacedShare: 0.25, LimitUs: 1000,
	},
	{
		Name: "admit-large",
		Why:  "250k live reservations, half the reservable prefix booked, 15% near-machine-wide requests: the restree/profile index dominates and heap_mb prices its nodes",
		Live: 250000, HorizonBits: 21, WidthHi: 64, DurLo: 20, DurHi: 180,
		WideShare: 0.15, WideLo: 160, WideHi: 192,
		PacedShare: 0.12, LimitUs: 1000,
	},
	{
		Name: "wire-small",
		Why:  "the admit-small state behind a loopback reswire server: the difference from admit-small is the codec, server and client",
		Live: 512, HorizonBits: 15, WidthHi: 64, DurLo: 20, DurHi: 100, Wire: true,
		PacedShare: 0.5, LimitUs: 2000,
	},
	{
		Name: "durable-mixed",
		Why:  "the production layers: WAL written every batch turn (fsynced in the traced run), hard quotas over 8 zipf tenants, obs+slo+flight armed, reads beside writes and refusals beside admissions",
		Live: 24000, HorizonBits: 17, WidthHi: 64, DurLo: 20, DurHi: 100, Durable: true, Sync: wal.SyncNone,
		Deadline: 500, Tenants: 8, Zipf: 1.1, CancelLag: 32,
		QueryShare: 0.10, StatsShare: 0.05, SnapEvery: 65536, TraceSample: 64,
		PacedShare: 0.4, LimitUs: 20000,
	},
	{
		Name:  "lsrc-batch",
		Why:   "the paper's LSRC on the tree index with no service around it: guards the reproduction, and every service-side change must leave it unmoved",
		LSRCM: 512, Jobs: 600, MaxWidthFrac: 0.5, NRes: 20, ResAlpha: 0.5, ResHorizon: 200000, Instances: 24,
	},
}

func workloadByName(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			w := workloads[i]
			w.Serial = serialSamples
			return &w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the state a workload holds, for the self-tests; the
// request mix and every rate stay as pinned.
func (w *spec) scaled(f float64) {
	if f >= 1 {
		return
	}
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if s := int(float64(n) * f); s > floor {
			return s
		}
		return floor
	}
	w.Live = shrink(w.Live, 256)
	w.Jobs = shrink(w.Jobs, 20)
	w.Instances = shrink(w.Instances, 4)
	w.Serial = shrink(w.Serial, 4*perCall)
}
