package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRejectedPlans drives the command in process through plans that must
// fail before any simulation runs: the error goes to stderr, stdout stays
// empty, and the exit code says whether the plan (2) or a job (1) was at
// fault. None of these cases builds a library or runs a simulation.
func TestRejectedPlans(t *testing.T) {
	lib := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		code    int
		wantErr string
	}{
		{"unknown id", []string{"-quick", "-run", "nope"}, 1, `unknown id "nope"`},
		{"unknown id, seeds", []string{"-quick", "-run", "nope", "-seeds", "2"}, 1, `unknown id "nope"`},
		{"unknown id, windowed", []string{"-quick", "-windows-parallel", "1", "-library", lib, "-run", "nope"}, 1, `unknown id "nope"`},
		{"unknown id, windowed seeds", []string{"-quick", "-windows-parallel", "1", "-library", lib, "-run", "nope", "-seeds", "2"}, 1, `unknown id "nope"`},
		{"zero seeds", []string{"-quick", "-seeds", "0"}, 2, "seed count"},
		{"zero seeds, windowed", []string{"-quick", "-windows-parallel", "1", "-library", lib, "-seeds", "0"}, 2, "seed count"},
		{"zero workers", []string{"-quick", "-parallel", "0"}, 2, "worker count"},
		{"json, windowed", []string{"-quick", "-windows-parallel", "1", "-library", lib, "-run", "fig5", "-json"}, 2, "supervision"},
		{"timeout, windowed", []string{"-quick", "-windows-parallel", "1", "-library", lib, "-run", "fig5", "-timeout", "1m"}, 2, "supervision"},
		{"audit, windowed", []string{"-quick", "-windows-parallel", "1", "-library", lib, "-run", "fig5", "-audit", "1000"}, 2, "supervision"},
		{"bad flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, errb.String())
			}
			if out.Len() != 0 {
				t.Errorf("stdout not empty: %q", out.String())
			}
			if !strings.Contains(errb.String(), tc.wantErr) {
				t.Errorf("stderr %q does not mention %q", errb.String(), tc.wantErr)
			}
		})
	}
	if ents, err := os.ReadDir(lib); err != nil || len(ents) != 0 {
		t.Errorf("library root holds %d entries (err %v), want none built", len(ents), err)
	}
}
