//go:build !unix

package wal

import (
	"errors"
	"fmt"
	"runtime"
)

// errPlatform is what Open returns here: a segment is written through a
// shared file mapping, and this build has none.
var errPlatform = fmt.Errorf("wal: no shared file mapping on %s: %w", runtime.GOOS, errors.ErrUnsupported)

func (l *Log) mapChunk(int64) error { return errPlatform }

func (l *Log) unmap() error { return nil }
