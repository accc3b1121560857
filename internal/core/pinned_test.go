package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
)

// pinnedInterval and pinnedCycles are the Quick experiment scale's
// interrupt interval and warmup: every pinned image is taken at or near
// that point of a run.
const (
	pinnedInterval = 120_000
	pinnedCycles   = 600_000
)

// sectionHashes encodes img and returns "name sha256" per section, in the
// container's (sorted) section order.
func sectionHashes(t *testing.T, img *checkpoint.Image) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := img.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	names, secs := splitImage(buf.Bytes())
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("%s %x", name, sha256.Sum256(secs[i]))
	}
	return out
}

// checkpointAt runs a fresh simulator for n cycles and returns its image.
func checkpointAt(t *testing.T, workloadName string, o core.Options, n uint64) *checkpoint.Image {
	t.Helper()
	sim, err := core.New(workloadName, o)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(n)
	img, err := sim.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// pinnedImages builds the pinned images, by case name.
func pinnedImages(t *testing.T) map[string]*checkpoint.Image {
	t.Helper()
	out := map[string]*checkpoint.Image{}
	out["apache-smt"] = checkpointAt(t, "apache",
		core.Options{Processor: core.SMT, Seed: 1, CyclesPer10ms: pinnedInterval}, pinnedCycles)
	out["apache-superscalar"] = checkpointAt(t, "apache",
		core.Options{Processor: core.Superscalar, Seed: 1, CyclesPer10ms: pinnedInterval}, pinnedCycles)
	out["specint-smt"] = checkpointAt(t, "specint",
		core.Options{Processor: core.SMT, Seed: 1, CyclesPer10ms: pinnedInterval}, pinnedCycles)
	out["apache-faults"] = checkpointAt(t, "apache", core.Options{
		Processor: core.SMT, Seed: 11, CyclesPer10ms: pinnedInterval,
		Faults: faults.Config{LossRate: 0.05, DelayRate: 0.02, CrashRate: 0.01, SlowClientRate: 0.1},
	}, pinnedCycles)
	out["apache-fleet-10k"] = checkpointAt(t, "apache", core.Options{
		Seed: 1, CyclesPer10ms: pinnedInterval, Clients: 10_000, ThinkTicks: 312, StaggerTicks: 312,
		MeasureLatency: true, IdleTimeoutTicks: 8,
		Sampling: core.Sampling{Period: 250_000, DetailWindow: 5_000},
	}, pinnedCycles)

	// A sampled run in library-build mode, imaged at the first window
	// start past the Quick warmup, then run half way into that window's
	// measurement in full detail and imaged again.
	sim, err := core.New("apache", core.Options{Seed: 1, CyclesPer10ms: pinnedInterval,
		Sampling: core.Sampling{Period: 1_500_000 / 32}})
	if err != nil {
		t.Fatal(err)
	}
	sim.Engine.SetSampleLibraryBuild(true)
	var cycle uint64
	for cycle < pinnedCycles || !sim.Engine.AtWindowStart() {
		ran, _ := sim.Engine.RunToNextWindow(1_000_000)
		cycle += ran
	}
	if out["sampled-window-start"], err = sim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sim.Engine.SetSampleLibraryBuild(false)
	warmup, detail := sim.Engine.SampleWindow()
	sim.Run(warmup + detail/2)
	if out["sampled-mid-window"], err = sim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return out
}

// pinnedSections holds the sha256 of every section of the pinned images.
// The section encoding is a stored format: libraries on disk are read
// back by later builds, so a change here is a format change (bump
// checkpoint.Version or core.CodeVersion) or a change of simulated
// behavior, never a side effect of a refactor.
var pinnedSections = map[string][]string{
	"apache-smt": {
		"engine 9e56069ff489a85059dd6b78028a63f5c3f42583e4a6ee594b19a62d825d384b",
		"kernel 616605890dd04f000ffe3f61a977dc33ce685c2eb60d30263794419d91b4c090",
		"meta d9bf675a22731f788ab84c6699c2ff3497508396b9e8f14725a6eadbae75f82c",
		"net 98037ea8e13d0b7ec5d997e358819951f8c207543c4edee6ac13706f85f3b6ed",
		"server d9e6e2b300ab4288210c88bafe33cb5ccc10c0330a97ffbccd630f6a689ac590",
	},
	"apache-superscalar": {
		"engine 295e0c493f81fe8d57517db7e971181d867f2d2bbfc93cfeb7f2e15a9e2d15b1",
		"kernel 341edf7f5bbc24348ebf0dda1164608f7ec66449d19f6a441acb54ed9b2dd2a4",
		"meta 5ff8a0e5a35894cb5b1ec050acfd372b64a8b65dcbe63ee35d7450191492e279",
		"net 1e8eeeb84bc4a4ddc2e682c7befde99fe15b1cd9d8bf41298cdff10e632839f5",
		"server 0a635ac8c2ad27f595e9687005e35896de952f3df549b892e66fabaf1c724c3e",
	},
	"specint-smt": {
		"engine 2a05a5f807e6fc91f0fff894586ed3fb0a376fd00d3556174b5ad3163f585e53",
		"kernel 5c913e653a1cbdeabc83243ce69d9fcbea8c776cd1f568e2e5f76cb88583dbbb",
		"meta 44cd8bb004edd029a1dd998be9535e492f074a158257d9968b67b7f679ba87b0",
	},
	"apache-faults": {
		"engine 4565acfb7359f265a4eacb04331b16cd4783d9ad278d557a888b031fda7fc0bf",
		"faults ae7dfd117913618f471feb52a258befa1583a19d74aca0fcafc1bab181a2a5a8",
		"kernel 0bd49144e6779a352e624eac056d9585c5adf88386e485cfd462929116f3d608",
		"meta d52609c1715b78438180821a91020e45675db24862252694b2e385eb0c05cbe0",
		"net 8e5f0efbc569b01e4f3b3691655496732c470109788d8c039366d26a861a8540",
		"server 561636dce958d55a710a11665579478cfb07f4eca17fbdc1877aba32a7fab022",
	},
	"apache-fleet-10k": {
		"engine 7a49a943eac2dbccc8b951ab548c80ec370a429c248182b3117ec211645bcfc3",
		"kernel 562b27ec7951f4230fd9f8d9609b7f39a553124326af2d2f1a09b72f2e4cd74e",
		"meta 73fee4df250b91154ee8788ae7fef0cf5ffbfec1218badb23d813c9162b76b47",
		"net 7f69f2e19dc6f7a965d23a18d9a028c1f89993623ce072ceb98204debb2d2fdc",
		"server 9c916895b08cce60c951caf8c89feebc5a6790374dee09c043bcda391edf734c",
	},
	"sampled-window-start": {
		"engine 08bed347e327e16f77f70b76add55782537ab8edd95bb3b2c59f37212852e66e",
		"kernel c423d1f17fc469a9605d7a87c02799429b11c5c53e1f735e0778dcea07061974",
		"meta 169972e6ab99362f063e23a6ed3a540046fafabe06ac3312b92dfa7997ae88bd",
		"net 327282d90ef1aa4b8f28d2daaa4d4468964a1a5203d9b95be482337feb4da40c",
		"server f7ec92316e82f71dc3d3b1935f48ed8630504ea9a590ccfde8a8ba8529942860",
	},
	"sampled-mid-window": {
		"engine d5e0938aabbb35a83c655b6a8e7ffbb71fa8fccd46db181b3e9f0994eac7fd8d",
		"kernel e8390ea524d1423f0b82b95e8807bd6a1cca1fa82392826ce03780cff74926ce",
		"meta 3c13d49ac34787ba77cebc96a4c68dde1ccd4b73cf4bc09352af302287fd5704",
		"net 327282d90ef1aa4b8f28d2daaa4d4468964a1a5203d9b95be482337feb4da40c",
		"server f7ec92316e82f71dc3d3b1935f48ed8630504ea9a590ccfde8a8ba8529942860",
	},
}

// pinnedFingerprints holds core.Fingerprint for two configurations.
var pinnedFingerprints = map[string]string{
	"apache-smt":                 "c796a3b81ea5bf7dd20989b152351f44",
	"specint-superscalar-faults": "f057a4ef31b83e9406fc7f321aac6974",
}

// TestCheckpointBytesPinned pins the exact bytes of checkpoint images
// from Quick-size runs, section by section, and the library fingerprints
// of two configurations. The golden tests check round trips only; this
// test fails when the bytes a build writes change at all.
func TestCheckpointBytesPinned(t *testing.T) {
	fps := map[string]string{
		"apache-smt": core.Fingerprint("apache", core.Options{Processor: core.SMT, Seed: 1,
			CyclesPer10ms: pinnedInterval, Sampling: core.Sampling{Period: 1_500_000 / 32}}, 1_500_000),
		"specint-superscalar-faults": core.Fingerprint("specint", core.Options{Processor: core.Superscalar,
			Seed: 7, CyclesPer10ms: 200_000, Faults: faults.Config{LossRate: 0.05, CrashRate: 0.01}}, 900_000),
	}
	for name, got := range fps {
		if want := pinnedFingerprints[name]; got != want {
			t.Errorf("fingerprint %s = %s, pinned %s", name, got, want)
		}
	}
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulations")
	}
	for name, img := range pinnedImages(t) {
		got := sectionHashes(t, img)
		want := pinnedSections[name]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: section hashes changed\n got %q\nwant %q", name, got, want)
		}
	}
}
