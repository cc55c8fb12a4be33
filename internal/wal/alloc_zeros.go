//go:build unix && !linux

package wal

import (
	"fmt"
	"os"
)

// zeros is the largest chunk's zero bytes, the allocation write's source.
var zeros [chunk]byte

// allocate gives the size bytes at file offset off real blocks by writing
// their zeros once: without fallocate, that is what makes a full disk an
// error here rather than a SIGBUS on a store into the mapping. The file is
// never grown by a sparse ftruncate.
func allocate(f *os.File, off int64, size int) error {
	if _, err := f.WriteAt(zeros[:size], off); err != nil {
		return fmt.Errorf("allocate: %w", err)
	}
	return nil
}
