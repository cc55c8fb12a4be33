//go:build unix

package wal

import (
	"fmt"
	"syscall"
)

// errPlatform is nil where a segment can be written through a shared
// mapping.
var errPlatform error

// mapChunk allocates the size bytes at file offset off and maps them in
// place of the current chunk.
func (l *Log) mapChunk(off int64, size int) error {
	if err := allocate(l.f, off, size); err != nil {
		return err
	}
	m, err := syscall.Mmap(int(l.f.Fd()), off, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mmap: %w", err)
	}
	if err := l.unmap(); err != nil {
		syscall.Munmap(m) // the failure to report is the first one
		return err
	}
	l.m, l.mOff, l.pos, l.span = m, off, 0, size
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
