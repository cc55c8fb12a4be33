//go:build unix

package wal

import (
	"fmt"
	"syscall"
)

// errPlatform is nil where a segment can be written through a shared
// mapping.
var errPlatform error

// mapChunk allocates the chunk at file offset off and maps it in place
// of the current one.
func (l *Log) mapChunk(off int64) error {
	if err := allocate(l.f, off); err != nil {
		return err
	}
	m, err := syscall.Mmap(int(l.f.Fd()), off, chunk, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mmap: %w", err)
	}
	if err := l.unmap(); err != nil {
		syscall.Munmap(m) // the failure to report is the first one
		return err
	}
	l.m, l.mOff, l.pos = m, off, 0
	return nil
}

// unmap drops the current chunk's mapping. Its pages stay in the page
// cache, dirty until written back.
func (l *Log) unmap() error {
	if l.m == nil {
		return nil
	}
	err := syscall.Munmap(l.m)
	l.m = nil
	if err != nil {
		return fmt.Errorf("munmap: %w", err)
	}
	return nil
}
