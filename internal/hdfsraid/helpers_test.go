package hdfsraid

import (
	"fmt"
	"os"
)

// ReadBlock is ReadBlockInto into a fresh buffer: the block's bytes and
// the transfers the read cost.
func (s *Store) ReadBlock(name string, stripe, symbol int) ([]byte, int, error) {
	dst := make([]byte, s.BlockSize())
	cost, err := s.ReadBlockInto(dst, name, stripe, symbol)
	if err != nil {
		return nil, 0, err
	}
	return dst, cost, nil
}

// CorruptBlock flips the first payload byte of a stored block replica on
// node v, so that its first cell fails its checksum. The stripe index is
// file-global, as in ReadBlockInto.
func (s *Store) CorruptBlock(v int, name string, stripe, symbol int) error {
	fi, ok := s.Info(name)
	if !ok {
		return fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	ext, local, ok := locateStripe(fi, stripe)
	if !ok {
		return fmt.Errorf("hdfsraid: stripe %d out of range", stripe)
	}
	path := s.extentBlockPath(v, name, fi, ext, local, symbol)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("hdfsraid: empty block %s", path)
	}
	raw[0] ^= 0xFF
	return os.WriteFile(path, raw, 0o644)
}
