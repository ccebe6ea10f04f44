package hdfsraid

import (
	"fmt"
	"io"
)

// ReadAt reads len(p) bytes of a stored file starting at byte offset
// off — the ranged-read primitive the serving front door's HTTP Range
// path sits on. It follows io.ReaderAt semantics: a read past the end
// returns the bytes available and io.EOF; n == len(p) iff err == nil.
// It is Get over a byte range: the same drain (readRange) down the
// same ladder, so any damage a Get survives, a ReadAt of the same bytes
// survives too — but only the extents the range intersects are read or
// counted as heat, so a ranged read of a large file never pays for (or
// warms) the rest of it.
func (s *Store) ReadAt(p []byte, name string, off int64) (int, error) {
	start := s.obs.now()
	if off < 0 {
		return 0, fmt.Errorf("hdfsraid: negative read offset %d", off)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	fi, ok := s.manifest.Files[name]
	if !ok {
		return 0, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= int64(fi.Length) {
		return 0, io.EOF
	}
	want := min(int64(len(p)), int64(fi.Length)-off)
	bs := int64(s.blockSize)
	s.admitRead(name, extentOf(fi, int(off/bs)), extentOf(fi, int((off+want-1)/bs)))
	degraded, err := s.readInto(name, fi, p[:want], off)
	if err != nil {
		return 0, fmt.Errorf("hdfsraid: reading %q bytes %d-%d: %w", name, off, off+want-1, err)
	}
	s.observeRead(readAt, s.obs.lap(start), degraded, int(want))
	if int(want) < len(p) {
		return int(want), io.EOF
	}
	return int(want), nil
}
