// Package workload provides realistic cluster workloads: a reader/writer
// for the Standard Workload Format (SWF) used by the Parallel Workloads
// Archive, and a synthetic generator with the empirical shape of production
// traces (power-of-two-biased widths, log-uniform runtimes, Poisson
// arrivals). The paper itself evaluates analytically, but a downstream user
// of the library schedules real traces; the generator stands in for the
// archive's data, which is not bundled.
package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// SWFJob is one record of a Standard Workload Format trace. Only the
// fields the schedulers consume are retained; unknown or missing values
// follow the SWF convention of -1.
type SWFJob struct {
	// ID is the job number (SWF field 1).
	ID int
	// Submit is the submit time in seconds (field 2).
	Submit int64
	// Wait is the wait time in seconds (field 3), -1 if unknown.
	Wait int64
	// Run is the actual runtime in seconds (field 4).
	Run int64
	// Procs is the number of allocated processors (field 5).
	Procs int
	// ReqProcs is the requested processor count (field 8), -1 if unknown.
	ReqProcs int
	// ReqTime is the requested (estimated) runtime (field 9), -1 if
	// unknown.
	ReqTime int64
	// Status is the completion status (field 11), -1 if unknown.
	Status int
}

// Trace is a parsed SWF workload.
type Trace struct {
	// Jobs in file order (usually by submit time).
	Jobs []SWFJob
	// MaxProcs is the machine size from the "; MaxProcs:" header comment,
	// or 0 when absent.
	MaxProcs int
	// Comments preserves header comment lines (without the leading ';').
	Comments []string
}

// ErrSWF wraps all SWF parse errors.
var ErrSWF = errors.New("workload: invalid SWF")

// ParseSWF reads a Standard Workload Format trace: whitespace-separated
// records of 18 numeric fields, with ';' comment lines. Records with fewer
// than 11 fields are rejected; fields beyond the ones retained are ignored.
func ParseSWF(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			c := strings.TrimSpace(strings.TrimPrefix(line, ";"))
			tr.Comments = append(tr.Comments, c)
			if rest, ok := strings.CutPrefix(c, "MaxProcs:"); ok {
				if v, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil {
					tr.MaxProcs = v
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 11 {
			return nil, fmt.Errorf("%w: line %d has %d fields, want >= 11", ErrSWF, lineNo, len(fields))
		}
		get := func(i int) (int64, error) {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%w: line %d field %d: %v", ErrSWF, lineNo, i+1, err)
			}
			return v, nil
		}
		var j SWFJob
		var v int64
		var err error
		if v, err = get(0); err != nil {
			return nil, err
		}
		j.ID = int(v)
		if j.Submit, err = get(1); err != nil {
			return nil, err
		}
		if j.Wait, err = get(2); err != nil {
			return nil, err
		}
		if j.Run, err = get(3); err != nil {
			return nil, err
		}
		if v, err = get(4); err != nil {
			return nil, err
		}
		j.Procs = int(v)
		if v, err = get(7); err != nil {
			return nil, err
		}
		j.ReqProcs = int(v)
		if j.ReqTime, err = get(8); err != nil {
			return nil, err
		}
		if v, err = get(10); err != nil {
			return nil, err
		}
		j.Status = int(v)
		tr.Jobs = append(tr.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSWF, err)
	}
	return tr, nil
}

// WriteSWF emits the trace in Standard Workload Format (18 fields, the
// unparsed ones written as -1).
func WriteSWF(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	for _, c := range tr.Comments {
		if _, err := fmt.Fprintf(bw, "; %s\n", c); err != nil {
			return err
		}
	}
	if tr.MaxProcs > 0 {
		has := false
		for _, c := range tr.Comments {
			if strings.HasPrefix(c, "MaxProcs:") {
				has = true
				break
			}
		}
		if !has {
			if _, err := fmt.Fprintf(bw, "; MaxProcs: %d\n", tr.MaxProcs); err != nil {
				return err
			}
		}
	}
	for _, j := range tr.Jobs {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d -1 -1 %d %d -1 %d -1 -1 -1 -1 -1 -1 -1\n",
			j.ID, j.Submit, j.Wait, j.Run, j.Procs, j.ReqProcs, j.ReqTime, j.Status); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Job converts an SWF record to a rigid job with the given index as core
// ID. Requested processors are preferred over allocated when present.
func (j SWFJob) Job(id int) (core.Job, bool) {
	procs := j.Procs
	if j.ReqProcs > 0 {
		procs = j.ReqProcs
	}
	if procs < 1 || j.Run < 1 {
		return core.Job{}, false
	}
	return core.Job{
		ID:    id,
		Name:  fmt.Sprintf("swf-%d", j.ID),
		Procs: procs,
		Len:   core.Time(j.Run),
	}, true
}

// Arrivals returns the trace's jobs with their submit times, ordered by
// submit time, for online simulation. Unusable records are skipped.
type Arrival struct {
	// Job is the rigid job.
	Job core.Job
	// At is the submit time.
	At core.Time
}

// Arrivals converts the trace for online use.
func (tr *Trace) Arrivals(m int) ([]Arrival, error) {
	if m <= 0 {
		m = tr.MaxProcs
	}
	if m <= 0 {
		return nil, fmt.Errorf("%w: machine size unknown", ErrSWF)
	}
	var out []Arrival
	for _, j := range tr.Jobs {
		cj, ok := j.Job(len(out))
		if !ok {
			continue
		}
		if cj.Procs > m {
			cj.Procs = m
		}
		at := j.Submit
		if at < 0 {
			at = 0
		}
		out = append(out, Arrival{Job: cj, At: core.Time(at)})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out, nil
}
