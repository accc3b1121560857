package core

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/checkpoint"
)

// CodeVersion names the simulator's behavioral revision for checkpoint-library
// invalidation. Bump it whenever a change alters simulated behavior for the
// same Options (new kernel policy, pipeline timing fix, workload script
// change, ...) or the checkpoint section layout: libraries built under a
// different CodeVersion are rejected at restore time instead of silently
// replaying stale state.
const CodeVersion = "ossmt-sim-3"

// Fingerprint condenses everything that determines a simulation's trajectory
// — workload, the full option set (as the meta section's Options bytes), the
// seed-partition scheme, the checkpoint format version, the code version,
// and the cycle span — into a short hex string. Two configurations share a
// checkpoint library if and only if their fingerprints match.
func Fingerprint(workloadName string, o Options, span uint64) string {
	var c checkpoint.Codec
	o.Sync(&c)
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|ckpt%d|span%d|stride%d|parts%d|",
		CodeVersion, workloadName, checkpoint.Version, span, seedStride, seedPartitionCount)
	h.Write(c.Bytes())
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
