package hdfsraid

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/obs"
)

// QuarantineDir is the directory (under the store root) where healing
// captures bad block frames before writing repaired ones back. Each
// capture keeps the node it came from in its name, so a captured frame
// can be inspected — or restored, which healing itself does when a
// reconstruction fails — without guessing where it lived.
const QuarantineDir = ".quarantine"

// healSuffix marks heal write-back temp frames: the repaired block is
// written beside its final path as <path>.heal<seq> and renamed into
// place, so a crash mid-write can never leave a torn frame at a name
// readers trust. Orphan-sweeping during recovery removes leftovers.
const healSuffix = ".heal"

// quarantinePath names the capture file for one bad block frame:
// <root>/.quarantine/<node>.<block file>.q<seq>. The sequence number
// keeps repeated captures of one path (possible under fault injection)
// from overwriting each other.
func (s *Store) quarantinePath(path string) string {
	node := filepath.Base(filepath.Dir(path))
	return filepath.Join(s.root, QuarantineDir,
		fmt.Sprintf("%s.%s.q%d", node, filepath.Base(path), s.healSeq.Add(1)))
}

// Quarantined lists the captured bad-frame files currently under the
// quarantine directory, relative to the store root.
func (s *Store) Quarantined() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, QuarantineDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, filepath.Join(QuarantineDir, e.Name()))
		}
	}
	return names, nil
}

// healBlock repairs one block replica that failed its CRC or vanished:
// re-verify (a concurrent heal may have won), move the bad frame to
// quarantine, reconstruct the payload, and atomically write the
// repaired frame back. content, when non-nil, is the already-known
// correct payload (a Get that just decoded the stripe has it);
// otherwise the block is reconstructed through the read ladder (data
// symbols) or re-encoded from its stripe's data (parity symbols).
//
// If reconstruction fails the captured frame is renamed back, so a
// failed heal never destroys the only copy of whatever evidence or
// recoverable bits the bad frame still holds. Callers hold at least
// mu's read side; idempotence under concurrent heals of the same path
// comes from the re-verify plus rename-into-place write-back.
func (s *Store) healBlock(cc codec, name string, fi FileInfo, ext, stripe, sym, v int, content []byte) error {
	path := s.extentBlockPath(v, name, fi, ext, stripe, sym)
	payload := s.payloadPool.Get()
	defer s.payloadPool.Put(payload)
	err := s.readBlockInto(path, payload, 0)
	if err == nil {
		return nil // already healthy: a concurrent heal (or flake) beat us
	}
	if transientReadErr(err) {
		return err // not a verdict about the bytes; leave the block alone
	}

	// Capture the bad frame before anything can overwrite it.
	quarantined := ""
	if !errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Join(s.root, QuarantineDir), 0o755); err != nil {
			return err
		}
		q := s.quarantinePath(path)
		switch err := s.bio.Rename(path, q); {
		case err == nil:
			quarantined = q
			s.obs.add(cQuarantine, 1)
			s.obs.emit(traceHeal, obs.Event{Type: "quarantine", Name: name, Ext: ext,
				Detail: fmt.Sprintf("stripe %d sym %d node %d -> %s", stripe, sym, v, filepath.Base(q))})
		case errors.Is(err, fs.ErrNotExist):
			// Lost a race with a concurrent quarantine of the same frame.
		default:
			return err
		}
	}
	if err := s.kill("quarantined"); err != nil {
		return err
	}

	if content != nil {
		copy(payload, content)
	} else if err := s.reconstructBlock(payload, cc, name, fi, ext, stripe, sym, v); err != nil {
		// Unrepairable right now (too many failures in the stripe, or
		// injected errors mid-reconstruct): put the captured frame back
		// where it was and report.
		if quarantined != "" {
			if rerr := s.bio.Rename(quarantined, path); rerr == nil {
				s.obs.emit(traceHeal, obs.Event{Type: "unquarantine", Name: name, Ext: ext,
					Detail: fmt.Sprintf("stripe %d sym %d node %d restored", stripe, sym, v)})
			}
		}
		return fmt.Errorf("hdfsraid: healing %s: %w", filepath.Base(path), err)
	}
	if err := s.writeBlockAtomic(path, payload); err != nil {
		return err
	}
	s.obs.emit(traceHeal, obs.Event{Type: "healed", Name: name, Ext: ext,
		Detail: fmt.Sprintf("stripe %d sym %d node %d", stripe, sym, v)})
	return nil
}

// reconstructBlock recomputes the payload of sym's replica on node v
// into dst through readStripe with healing off (heal never recurses).
// The bad replica itself is already quarantined away (or fails its CRC
// read), so a data symbol comes down the ladder from a sibling replica
// — the whole reconstruction source under a replication code — the
// read plan, or a full-stripe decode. A parity symbol is copied from a
// sibling replica when it has one (one block, the paper's repair by
// transfer), else re-encoded from the stripe's data blocks, read the
// same way.
func (s *Store) reconstructBlock(dst []byte, cc codec, name string, fi FileInfo, ext, stripe, sym, v int) error {
	k := cc.code.DataSymbols()
	if sym < k {
		_, err := s.readStripe(cc, name, fi, ext, stripe, sym, 0, [][]byte{dst}, false)
		return err
	}
	for _, u := range cc.code.Placement().SymbolNodes[sym] {
		if u != v && s.readBlockInto(s.extentBlockPath(u, name, fi, ext, stripe, sym), dst, 0) == nil {
			return nil
		}
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = s.payloadPool.Get()
	}
	defer func() {
		for _, b := range data {
			s.payloadPool.Put(b)
		}
	}()
	if _, err := s.readStripe(cc, name, fi, ext, stripe, 0, 0, data, false); err != nil {
		return err
	}
	enc, release, err := core.EncodeWith(cc.code, s.payloadPool, data)
	if err != nil {
		return err
	}
	copy(dst, enc[sym])
	release()
	return nil
}

// writeBlockAtomic writes a block frame beside its final path and
// renames it into place, so concurrent readers only ever see the old
// frame (already quarantined away — a missing file, which they decode
// around) or the complete new one, never a partial write.
func (s *Store) writeBlockAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s%s%d", path, healSuffix, s.healSeq.Add(1))
	if err := s.writeBlock(tmp, data); err != nil {
		s.bio.Remove(tmp)
		return err
	}
	if err := s.kill("healwrite"); err != nil {
		return err // simulated crash: a stray .heal temp recovery sweeps
	}
	if err := s.bio.Rename(tmp, path); err != nil {
		s.bio.Remove(tmp)
		return err
	}
	return nil
}
