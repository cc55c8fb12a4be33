package wal

import (
	"fmt"
	"os"
	"syscall"
)

// allocate gives the size bytes at file offset off real blocks with one
// fallocate, which returns ENOSPC on a full disk.
func allocate(f *os.File, off int64, size int) error {
	if err := syscall.Fallocate(int(f.Fd()), 0, off, int64(size)); err != nil {
		return fmt.Errorf("fallocate: %w", err)
	}
	return nil
}
