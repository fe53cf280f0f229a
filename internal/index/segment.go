package index

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// This file is the segment layer of the live index: small frozen flat
// indexes (segments) listed by an atomically committed manifest. A
// segment is just a one-shard index directory (WriteDir), so the existing
// writer, reader and gather are reused verbatim; what is new here is the
// lifecycle — list (Manifest) and plan compactions (PlanMerge). A
// Searcher opened over the listed segments (OpenSnapshot) unions searches
// across them.

// ManifestFileName is the segment list of a live index directory. It is
// committed atomically (write temp file, fsync, rename), so readers see
// either the old or the new generation, never a partial one. A directory
// without a manifest is a plain frozen index: its implicit manifest is
// generation 0 with the directory itself as the only segment.
const ManifestFileName = "MANIFEST.json"

// SegmentsDirName is the subdirectory holding ingested segments.
const SegmentsDirName = "segments"

// manifestVersion is the manifest schema version.
const manifestVersion = 1

// Manifest is the committed state of a live index: an ordered list of
// segment directories (relative to the index root; "." is the base index
// the directory was originally built with) and a generation counter that
// increases with every commit. Segment order is canonical: global doc
// numbers are assigned segment by segment in list order.
type Manifest struct {
	Version    int      `json:"version"`
	Generation uint64   `json:"generation"`
	Segments   []string `json:"segments"`
}

// ReadManifest reads dir's manifest. ok is false when none exists (a
// plain frozen index directory).
func ReadManifest(dir string) (Manifest, bool, error) {
	var m Manifest
	b, err := os.ReadFile(filepath.Join(dir, ManifestFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return m, false, nil
		}
		return m, false, fmt.Errorf("manifest read: %w", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, false, fmt.Errorf("manifest read %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return m, false, fmt.Errorf("manifest read %s: version %d, this build supports %d", dir, m.Version, manifestVersion)
	}
	for _, s := range m.Segments {
		if s != "." && (s == "" || filepath.IsAbs(s) || strings.Contains(s, "..")) {
			return m, false, fmt.Errorf("manifest read %s: invalid segment path %q", dir, s)
		}
	}
	return m, true, nil
}

// WriteManifest atomically commits m as dir's manifest: the JSON is
// written to a temp file in the same directory, synced, and renamed over
// the live name, and dir is synced after the rename. A crash leaves either
// the previous manifest or the new one, never a torn file, and once it
// returns the new one survives a crash — so a caller may unlink what only
// the previous manifest listed.
func WriteManifest(dir string, m Manifest) error {
	m.Version = manifestVersion
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("manifest write: %w", err)
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(dir, ManifestFileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("manifest write: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("manifest write: %w", err)
	}
	if err := fsync(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("manifest write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("manifest write: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, ManifestFileName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("manifest write: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("manifest write: %w", err)
	}
	return nil
}

// SnapshotManifest returns dir's committed manifest, or the implicit
// base-only manifest (generation 0, segment ".") when none exists and the
// directory holds a flat index. A directory with neither fails with an
// error wrapping fs.ErrNotExist, so callers can tell a missing index from
// a corrupt one.
func SnapshotManifest(dir string) (Manifest, error) {
	m, ok, err := ReadManifest(dir)
	if err != nil {
		return m, err
	}
	if ok {
		return m, nil
	}
	if _, err := os.Stat(filepath.Join(dir, DocsFileName)); err != nil {
		return m, fmt.Errorf("index open %s: no manifest and no flat index: %w", dir, err)
	}
	return Manifest{Version: manifestVersion, Segments: []string{"."}}, nil
}

// SegmentDirName names the seq-th ingested segment, relative to the index
// root. The fixed-width sequence number keeps lexicographic listing equal
// to creation order.
func SegmentDirName(seq uint64) string {
	return filepath.Join(SegmentsDirName, fmt.Sprintf("seg-%010d", seq))
}

// The size-tiered background merge: segments are bucketed into doc-count
// tiers of ratio tierBase, and any tier that accumulates tierFanIn
// segments is compacted into one. Inputs are immutable — a merge writes a
// brand-new segment and the manifest commit swaps it in — so queries
// running on the old generation are unaffected.
const (
	tierFanIn = 4 // segments per tier that trigger a merge
	tierBase  = 4 // doc-count ratio between adjacent tiers
)

// tier buckets a doc count: 0 for < tierBase docs, 1 for < tierBase²,
// and so on.
func tier(docs int) int {
	t := 0
	for docs >= tierBase {
		docs /= tierBase
		t++
	}
	return t
}

// PlanMerge picks one merge from the given per-segment doc counts: the
// indices (ascending) of the segments in the lowest tier holding at least
// tierFanIn members, or nil when no tier is full. Pure function — the
// caller owns locking and the decision of which segments are eligible
// (the base index, typically the largest tier, is usually excluded).
func PlanMerge(docCounts []int) []int {
	byTier := make(map[int][]int)
	for i, n := range docCounts {
		t := tier(n)
		byTier[t] = append(byTier[t], i)
	}
	best := -1
	for t, members := range byTier {
		if len(members) >= tierFanIn && (best < 0 || t < best) {
			best = t
		}
	}
	if best < 0 {
		return nil
	}
	return byTier[best]
}
