// Command obscheck strict-parses a Prometheus text exposition — from a
// live /metrics endpoint or stdin — and fails when it is malformed or
// missing required metric families. It is the scrape-side conformance
// check of the obs exposition writer (the same parser the unit tests run
// against), used by CI's observability smoke job against a running
// resdsrv and handy as a one-shot "is the service exporting what the
// dashboards expect" probe:
//
//	obscheck -url http://127.0.0.1:9090/metrics \
//	    -require resd_shard_queue_depth,resd_admissions_total
//	curl -s http://host:9090/metrics | obscheck -require resd_shard_active
//
// With -watch it checks the push side instead: it subscribes to a
// resdsrv wire address with the Watch op and verifies the stream —
// at least -frames telemetry frames arrive, sequence numbers strictly
// increase (a restart mid-check fails the run), and the cumulative
// counters (admitted, cancelled, ops, traces) never go backwards. -min
// additionally demands that many admissions be observed across the run,
// so CI can assert the subscriber saw real traffic, not an idle server:
//
//	obscheck -watch 127.0.0.1:7433 -frames 5 -interval 200ms -min 1000
//
// With -flight it validates the flight-recorder surface instead: it
// fetches /debug/flight from the observability base URL, checks the
// reported health state and journal, -nostall fails the run when the
// watchdog ever judged a shard loop stalled (state or journal
// evidence), and -capture requests an on-demand diagnostic bundle and
// validates its contents (manifest, journal, parseable metrics
// snapshot):
//
//	obscheck -flight http://127.0.0.1:9090 -nostall
//	obscheck -flight http://127.0.0.1:9090 -capture
//
// With -slo the scrape check additionally asserts the SLO surface: the
// resd_slo_* families an armed engine exports must be present, and the
// worst resd_slo_alert_state gauge across objectives must match the
// expectation — ok (0), warn (1), page (2), or any (armed, state free).
// CI's burn-rate drill uses it to prove an alert both fires and clears:
//
//	obscheck -url http://127.0.0.1:9090/metrics -slo page
//	obscheck -url http://127.0.0.1:9090/metrics -slo ok
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/reswire"
)

func run() error {
	url := flag.String("url", "", "scrape this endpoint (default: read stdin)")
	require := flag.String("require", "", "comma-separated metric families that must be present")
	timeout := flag.Duration("timeout", 5*time.Second, "scrape timeout (with -url)")
	verbose := flag.Bool("v", false, "list every family with its sample count / every telemetry frame")
	watch := flag.String("watch", "", "subscribe to this resdsrv wire address and verify pushed telemetry instead of scraping")
	frames := flag.Int("frames", 5, "telemetry frames that must arrive (with -watch)")
	interval := flag.Duration("interval", 200*time.Millisecond, "requested push period (with -watch)")
	minAdmitted := flag.Uint64("min", 0, "total admissions the final frame must have reached (with -watch)")
	flightURL := flag.String("flight", "", "validate the flight-recorder surface at this observability base URL instead of scraping")
	nostall := flag.Bool("nostall", false, "fail when the watchdog ever recorded a stall (with -flight)")
	capture := flag.Bool("capture", false, "request an on-demand bundle and validate its contents (with -flight)")
	sloExpect := flag.String("slo", "", "additionally assert the SLO surface: resd_slo_* families present and worst alert state matching ok|warn|page|any")
	flag.Parse()

	if *watch != "" {
		return runWatch(*watch, *interval, *frames, *minAdmitted, *verbose)
	}
	if *flightURL != "" {
		return runFlight(*flightURL, *timeout, *nostall, *capture, *verbose)
	}

	var data []byte
	if *url != "" {
		client := &http.Client{Timeout: *timeout}
		resp, err := client.Get(*url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("obscheck: %s answered %s", *url, resp.Status)
		}
		data, err = io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
	} else {
		var err error
		data, err = io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
	}

	exp, err := obs.ParseExposition(data)
	if err != nil {
		return fmt.Errorf("obscheck: exposition is malformed: %w", err)
	}

	var missing []string
	for _, name := range strings.Split(*require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if exp.Family(name) == nil {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("obscheck: exposition parses but lacks required families: %s",
			strings.Join(missing, ", "))
	}
	if *sloExpect != "" {
		if err := checkSLO(exp, *sloExpect, *verbose); err != nil {
			return err
		}
	}

	samples := 0
	for _, f := range exp.Families {
		samples += len(f.Samples)
		if *verbose {
			fmt.Printf("%-40s %-8s %d samples\n", f.Name, f.Type, len(f.Samples))
		}
	}
	fmt.Printf("obscheck: ok: %d families, %d samples\n", len(exp.Families), samples)
	return nil
}

// watchTotals is the monotonicity fingerprint of one telemetry frame:
// every cumulative counter the stream promises never decreases, summed
// across shards.
type watchTotals struct {
	admitted, cancelled, rejected, ops, traced uint64
}

func totalsOf(t reswire.Telemetry) watchTotals {
	var w watchTotals
	for i := range t.Shards {
		st := &t.Shards[i]
		w.admitted += st.Admitted
		w.cancelled += st.Cancelled
		w.rejected += st.Rejected + st.RejectedDeadline + st.RejectedQuota
		w.ops += st.Ops
	}
	w.traced = t.TracesSampled
	return w
}

// runWatch subscribes to addr and fails unless the stream behaves: the
// subscription is answered, at least `frames` frames arrive before the
// deadline, Seq strictly increases (the client restarts Seq at 1 only
// after a reconnect — mid-check that means the server bounced, which a
// smoke test should fail on), and no cumulative counter regresses.
func runWatch(addr string, interval time.Duration, frames int, minAdmitted uint64, verbose bool) error {
	if frames < 1 {
		return fmt.Errorf("obscheck: -frames must be >= 1, got %d", frames)
	}
	client, err := reswire.Dial(addr, reswire.Options{})
	if err != nil {
		return err
	}
	defer client.Close()

	// Generous deadline: the server may clamp the requested interval up
	// to its floor, and CI boxes stall — but a healthy server pushes the
	// first frame immediately, so 10× the nominal span plus a constant
	// only ever matters when something is actually wrong.
	deadline := 10*time.Duration(frames)*interval + 5*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	ch, err := client.Watch(ctx, reswire.WatchOptions{Interval: interval})
	if err != nil {
		return err
	}

	var lastSeq uint64
	var last watchTotals
	got := 0
	for tel := range ch {
		if tel.Seq <= lastSeq {
			return fmt.Errorf("obscheck: watch: frame %d has seq %d after seq %d (server restarted mid-check?)",
				got+1, tel.Seq, lastSeq)
		}
		cur := totalsOf(tel)
		if cur.admitted < last.admitted || cur.cancelled < last.cancelled ||
			cur.rejected < last.rejected || cur.ops < last.ops || cur.traced < last.traced {
			return fmt.Errorf("obscheck: watch: cumulative counters regressed between frames: %+v -> %+v", last, cur)
		}
		lastSeq, last = tel.Seq, cur
		got++
		if verbose {
			fmt.Printf("frame %2d  seq=%-4d dropped=%-3d shards=%d admitted=%d ops=%d traced=%d\n",
				got, tel.Seq, tel.Dropped, len(tel.Shards), cur.admitted, cur.ops, cur.traced)
		}
		if got >= frames {
			break
		}
	}
	if got < frames {
		return fmt.Errorf("obscheck: watch: stream ended after %d/%d frames (deadline %v): %w",
			got, frames, deadline, ctx.Err())
	}
	if last.admitted < minAdmitted {
		return fmt.Errorf("obscheck: watch: saw %d admissions, want >= %d", last.admitted, minAdmitted)
	}
	fmt.Printf("obscheck: watch ok: %d frames from %s, seq %d, %d admitted, %d ops\n",
		frames, addr, lastSeq, last.admitted, last.ops)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
