// Package cliflag centralises flag validation for the repository's CLIs.
//
// The generators and simulators behind the commands treat their
// parameters as preconditions — workload.ReservationStream panics on
// α outside (0,1], SynthConfig rejects absurd sizes only deep inside a
// run — so a mistyped flag used to surface as a panic or silently
// garbage output. Every command validates its flags up front with these
// helpers and exits with a one-line message naming the offending flag
// instead.
package cliflag

import (
	"errors"
	"fmt"
	"os"
)

// ErrFlag wraps every validation failure so callers can branch on it.
var ErrFlag = errors.New("invalid flag")

// Positive requires v >= 1 (machine sizes, job counts, shard counts).
func Positive(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("%w: -%s must be positive, got %d", ErrFlag, name, v)
	}
	return nil
}

// NonNegative requires v >= 0 (reservation counts, seeds-as-ints).
func NonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%w: -%s must be >= 0, got %d", ErrFlag, name, v)
	}
	return nil
}

// Unit requires v in [0,1] (the α admission parameter, fractions).
func Unit(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("%w: -%s must lie in [0,1], got %v", ErrFlag, name, v)
	}
	return nil
}

// PositiveUnit requires v in (0,1] (α when a reservation stream is
// actually drawn: workload.ReservationStream rejects α=0).
func PositiveUnit(name string, v float64) error {
	if v <= 0 || v > 1 {
		return fmt.Errorf("%w: -%s must lie in (0,1], got %v", ErrFlag, name, v)
	}
	return nil
}

// NonNegativeF requires v >= 0 (rates, mean inter-arrival times).
func NonNegativeF(name string, v float64) error {
	if v < 0 {
		return fmt.Errorf("%w: -%s must be >= 0, got %v", ErrFlag, name, v)
	}
	return nil
}

// WritableDir requires path to name a directory this process can create
// files in, creating it (and any parents) if absent. Commands that open
// durable state there (resdsrv's -waldir) validate at flag time, so a
// typo'd or read-only path fails with a one-line message instead of a
// mid-boot open error after the service already started replaying.
func WritableDir(name, path string) error {
	if path == "" {
		return fmt.Errorf("%w: -%s must not be empty", ErrFlag, name)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return fmt.Errorf("%w: -%s: %v", ErrFlag, name, err)
	}
	f, err := os.CreateTemp(path, ".probe-*")
	if err != nil {
		return fmt.Errorf("%w: -%s: %s is not writable: %v", ErrFlag, name, path, err)
	}
	f.Close()
	os.Remove(f.Name())
	return nil
}

// First returns the first non-nil error, letting commands validate a
// whole flag set in one expression.
func First(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
