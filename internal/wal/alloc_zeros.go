//go:build unix && !linux

package wal

import (
	"fmt"
	"os"
)

// zeros is one chunk of zero bytes, the allocation write's source.
var zeros [chunk]byte

// allocate gives the chunk at file offset off real blocks by writing its
// zeros once: without fallocate, that is what makes a full disk an error
// here rather than a SIGBUS on a store into the mapping. The file is never
// grown by a sparse ftruncate.
func allocate(f *os.File, off int64) error {
	if _, err := f.WriteAt(zeros[:], off); err != nil {
		return fmt.Errorf("allocate: %w", err)
	}
	return nil
}
