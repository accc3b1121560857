// Checkpoint libraries: a directory of per-window checkpoint images plus a
// JSON index, produced once per (workload, options, span) configuration and
// consumed by the parallel-window regeneration pass. Each image carries a
// manifest section binding it to the configuration fingerprint that produced
// it, so a stale library (different options, seed partitioning, or simulator
// code version) is rejected with a *FormatError instead of silently running
// divergent state.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestSection is the image section naming the library manifest.
const ManifestSection = "library-manifest"

// IndexFile is the name of the library's JSON index inside its directory.
const IndexFile = "index.json"

// LibraryManifest binds one window image to the configuration that produced
// it. Fingerprint covers the workload, full option set, seed partitioning and
// code version (see core.Fingerprint); the rest locates the window.
type LibraryManifest struct {
	// Fingerprint is the configuration fingerprint the image belongs to.
	Fingerprint string
	// CodeVersion is the simulator code-version string at build time
	// (redundant with Fingerprint, kept for human diagnosis).
	CodeVersion string
	// Seed is the configuration's base seed.
	Seed uint64
	// Window is the zero-based window index within the library.
	Window int
	// Cycle and Retired are the simulated-cycle and retired-instruction
	// positions of the window's opening boundary.
	Cycle, Retired uint64
}

// Sync syncs the manifest section.
func (m *LibraryManifest) Sync(c *Codec) {
	c.String(&m.Fingerprint)
	c.String(&m.CodeVersion)
	c.Uint(&m.Seed)
	I(c, &m.Window)
	c.Uint(&m.Cycle)
	c.Uint(&m.Retired)
}

// PutManifest stores m as the image's manifest section.
func PutManifest(img *Image, m LibraryManifest) {
	img.Put(ManifestSection, m.Sync)
}

// Manifest decodes the image's manifest section. A missing section is a
// *FormatError (the image predates libraries or is not a library image).
func Manifest(img *Image) (LibraryManifest, error) {
	var m LibraryManifest
	err := img.Get(ManifestSection, m.Sync)
	return m, err
}

// VerifyManifest decodes the manifest and rejects the image unless its
// fingerprint matches wantFP. The error is a *FormatError so callers can
// distinguish "stale library, rebuild it" from I/O failures the same way they
// distinguish corrupt files.
func VerifyManifest(img *Image, path, wantFP string) (LibraryManifest, error) {
	m, err := Manifest(img)
	if err != nil {
		if fe, ok := err.(*FormatError); ok && fe.Path == "" {
			fe.Path = path
		}
		return m, err
	}
	if m.Fingerprint != wantFP {
		return m, &FormatError{
			Path: path,
			Reason: fmt.Sprintf("stale library image: fingerprint %s does not match configuration %s (options, seed partitioning, or code version changed; rebuild the library)",
				m.Fingerprint, wantFP),
		}
	}
	return m, nil
}

// LibraryWindow locates one window image within a library.
type LibraryWindow struct {
	// File is the image file name, relative to the library directory.
	File string
	// Cycle and Retired are the window's opening-boundary positions.
	Cycle, Retired uint64
}

// LibraryIndex is the JSON index of a checkpoint library directory.
type LibraryIndex struct {
	// Fingerprint identifies the configuration; restores verify it against
	// each image's manifest.
	Fingerprint string
	// CodeVersion is the simulator code-version string at build time.
	CodeVersion string
	// Workload is the workload name ("specint", "apache", ...).
	Workload string
	// Seed is the configuration's base seed.
	Seed uint64
	// Span is the total simulated-cycle span the library covers.
	Span uint64
	// Windows lists the window images in window order.
	Windows []LibraryWindow
}

// LibraryWindowPath returns the image path for window win inside dir.
func LibraryWindowPath(dir string, win int) string {
	return filepath.Join(dir, fmt.Sprintf("win-%04d.ckpt", win))
}

// WriteLibraryIndex writes idx to dir's index file atomically. The index is
// written last during a build, so a directory with a valid index has all its
// window images in place.
func WriteLibraryIndex(dir string, idx LibraryIndex) error {
	raw, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encoding library index: %w", err)
	}
	raw = append(raw, '\n')
	tmp, err := os.CreateTemp(dir, ".index-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing library index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: writing library index: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, IndexFile)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadLibraryIndex reads dir's index file. Any failure — including the file
// simply not existing yet — is a *FormatError, which callers treat as "no
// usable library here, build one".
func ReadLibraryIndex(dir string) (LibraryIndex, error) {
	var idx LibraryIndex
	raw, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		return idx, &FormatError{Path: filepath.Join(dir, IndexFile), Reason: "reading library index", Err: err}
	}
	if err := json.Unmarshal(raw, &idx); err != nil {
		return idx, &FormatError{Path: filepath.Join(dir, IndexFile), Reason: "decoding library index", Err: err}
	}
	return idx, nil
}
