package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSmokeLegs drives whole simulations through the command in process:
// an audited run, a checkpoint saved and then resumed under audit, and the
// sampled, resource-exhaustion and 100k-client fleet runs, each of which
// must reproduce byte-identically on a second run. Every leg must exit 0;
// the audit-on legs exit nonzero on any cross-layer inconsistency.
func TestSmokeLegs(t *testing.T) {
	if testing.Short() {
		t.Skip("whole simulations")
	}
	ckpt := filepath.Join(t.TempDir(), "smoke.ckpt")
	legs := []struct {
		name  string
		args  []string
		twice bool     // rerun and require byte-identical stdout
		want  []string // substrings stdout must contain
	}{
		{name: "audit", args: []string{"-workload", "apache", "-warmup", "500000", "-cycles", "1000000", "-audit", "200000"}},
		{name: "ckpt-save", args: []string{"-workload", "apache", "-warmup", "300000", "-cycles", "500000", "-checkpoint", ckpt}},
		{name: "ckpt-resume", args: []string{"-restore", ckpt, "-warmup", "0", "-cycles", "300000", "-audit", "150000"}},
		{name: "sample", twice: true, args: []string{"-workload", "apache", "-warmup", "100000", "-cycles", "400000",
			"-sample", "-sample-period", "100000", "-sample-window", "5000"}},
		{name: "exhaust", twice: true, want: []string{"resources:"}, args: []string{"-workload", "apache", "-warmup", "200000", "-cycles", "400000",
			"-interval", "40000", "-clients", "96", "-idle-timeout", "4",
			"-mem-frames", "1600", "-sock-table", "48", "-mbuf-pool", "24", "-fd-limit", "2",
			"-mem-squeeze", "0.55", "-pool-squeeze", "0.5", "-squeeze-tick", "2", "-audit", "100000"}},
		{name: "scale", twice: true, want: []string{"latency ticks"}, args: []string{"-workload", "apache", "-warmup", "200000", "-cycles", "400000",
			"-interval", "40000", "-clients", "100000", "-stagger", "400", "-think", "400",
			"-measure-latency", "-idle-timeout", "8", "-audit", "100000"}},
	}
	runLeg := func(t *testing.T, args []string) string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d\nstderr:\n%s", code, errb.String())
		}
		return out.String()
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			out := runLeg(t, leg.args)
			if leg.twice {
				if again := runLeg(t, leg.args); again != out {
					t.Errorf("second run differs:\nfirst:\n%s\nsecond:\n%s", out, again)
				}
			}
			for _, w := range leg.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
		if leg.name == "ckpt-save" {
			if _, err := os.Stat(ckpt); err != nil {
				t.Fatalf("checkpoint not written: %v", err)
			}
		}
	}
}

// TestRejectedFlags checks command lines that must exit 2 before any
// simulation is built.
func TestRejectedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-ckpt-every", "100000"},
		{"-proc", "vliw"},
		{"-no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 || errb.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q; want the error on stderr only", args, out.String(), errb.String())
		}
	}
}

// flagTable maps every ossmt flag to a non-default value and the config
// field that value must land in.
var flagTable = map[string]struct{ value, field string }{
	"proc":            {"ss", "opts.Processor"},
	"seed":            {"7", "opts.Seed"},
	"apponly":         {"true", "opts.AppOnly"},
	"omitpriv":        {"true", "opts.OmitPrivileged"},
	"interval":        {"50000", "opts.CyclesPer10ms"},
	"contexts":        {"4", "opts.Contexts"},
	"procs":           {"32", "opts.ServerProcesses"},
	"clients":         {"256", "opts.Clients"},
	"think":           {"3", "opts.ThinkTicks"},
	"stagger":         {"9", "opts.StaggerTicks"},
	"measure-latency": {"true", "opts.MeasureLatency"},
	"idlespin":        {"true", "opts.IdleSpin"},
	"rrfetch":         {"true", "opts.RoundRobinFetch"},
	"loss":            {"0.05", "opts.Faults.LossRate"},
	"corrupt":         {"0.02", "opts.Faults.CorruptRate"},
	"delay":           {"0.1", "opts.Faults.DelayRate"},
	"maxdelay":        {"3", "opts.Faults.MaxDelayTicks"},
	"crashrate":       {"0.01", "opts.Faults.CrashRate"},
	"faultseed":       {"99", "opts.Faults.Seed"},
	"watchdog":        {"150000", "opts.Faults.LivelockWindow"},
	"backlog":         {"16", "opts.AcceptBacklog"},
	"idle-timeout":    {"4", "opts.IdleTimeoutTicks"},
	"slowrate":        {"0.2", "opts.Faults.SlowClientRate"},
	"trickle":         {"5", "opts.Faults.TrickleTicks"},
	"stormrate":       {"0.3", "opts.Faults.StormClientRate"},
	"stormhold":       {"6", "opts.Faults.StormHoldTicks"},
	"burst-every":     {"20", "opts.Faults.BurstEvery"},
	"burst-size":      {"12", "opts.Faults.BurstSize"},
	"mem-frames":      {"1600", "opts.MemFrameLimit"},
	"sock-table":      {"48", "opts.SocketTable"},
	"mbuf-pool":       {"24", "opts.MbufPool"},
	"proc-table":      {"128", "opts.ProcTable"},
	"fd-limit":        {"2", "opts.FDLimit"},
	"mem-squeeze":     {"0.55", "opts.Faults.MemSqueezeFrac"},
	"pool-squeeze":    {"0.5", "opts.Faults.PoolSqueezeFrac"},
	"squeeze-tick":    {"2", "opts.Faults.SqueezeAtTick"},
	"squeeze-jitter":  {"8", "opts.Faults.SqueezeJitterTicks"},
	"sample":          {"true", "sample"},
	"sample-period":   {"100000", "opts.Sampling.Period"},
	"sample-window":   {"5000", "opts.Sampling.DetailWindow"},
	"checkpoint":      {"run.ckpt", "sup.CheckpointPath"},
	"ckpt-every":      {"100000", "sup.CheckpointEvery"},
	"audit":           {"200000", "sup.AuditEvery"},
	"cpuprofile":      {"cpu.pprof", "prof.CPU"},
	"memprofile":      {"mem.pprof", "prof.Mem"},
	"workload":        {"specint", "workload"},
	"restore":         {"in.ckpt", "restore"},
	"cycles":          {"1500000", "cycles"},
	"warmup":          {"500000", "warmup"},
	"perthread":       {"true", "perThread"},
	"deadline":        {"2m0s", "deadline"},
}

// noFlag lists the exported core.Options fields (faults.Config and Sampling
// included) that no flag sets: the experiments configure them in code.
var noFlag = map[string]bool{
	"ModelNetworkDMA":          true,
	"AffinityScheduler":        true,
	"KeepAliveRequests":        true,
	"BufferCacheHitRate":       true,
	"Faults.RetryTimeoutTicks": true,
	"Faults.BackoffCapTicks":   true,
	"Faults.MaxRetries":        true,
	"Faults.MaxCrashes":        true,
	"Sampling.Warmup":          true,
}

// leaves flattens v's scalar fields into path → printed value, so two
// configs can be compared field by field (unexported fields included).
func leaves(prefix string, v reflect.Value, out map[string]string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if prefix != "" {
				name = prefix + "." + name
			}
			leaves(name, v.Field(i), out)
		}
	case reflect.Bool:
		out[prefix] = strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int64:
		if v.Type() == reflect.TypeOf(time.Duration(0)) {
			out[prefix] = time.Duration(v.Int()).String()
		} else {
			out[prefix] = strconv.FormatInt(v.Int(), 10)
		}
	case reflect.Uint8, reflect.Uint64:
		out[prefix] = strconv.FormatUint(v.Uint(), 10)
	case reflect.Float64:
		out[prefix] = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.String:
		out[prefix] = v.String()
	default:
		panic("leaves: unhandled kind " + v.Kind().String() + " at " + prefix)
	}
}

func parsedLeaves(t *testing.T, args []string) map[string]string {
	t.Helper()
	c, err := parse(args, io.Discard)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	out := map[string]string{}
	leaves("", reflect.ValueOf(*c), out)
	return out
}

// TestFlagTable pins the one flag table: every flag lands in its own field,
// no two flags write the same field, and every exported Options field either
// has a flag or is on the explicit no-flag list.
func TestFlagTable(t *testing.T) {
	var names []string
	(&config{}).flagSet(io.Discard).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	byField := map[string]string{}
	for _, name := range names {
		e, ok := flagTable[name]
		if !ok {
			t.Errorf("flag -%s is missing from the table", name)
			continue
		}
		if other, dup := byField[e.field]; dup {
			t.Errorf("flags -%s and -%s both map to %s", other, name, e.field)
		}
		byField[e.field] = name
	}
	if len(flagTable) != len(names) {
		t.Errorf("table has %d flags, the command %d", len(flagTable), len(names))
	}

	defaults := parsedLeaves(t, nil)
	var all []string
	for _, name := range names {
		e := flagTable[name]
		all = append(all, "-"+name+"="+e.value)
		// Alone, each flag changes exactly its own field. (-ckpt-every
		// needs -checkpoint, so it is measured against that base.)
		var base []string
		if name == "ckpt-every" {
			base = []string{"-checkpoint=" + flagTable["checkpoint"].value}
		}
		before := parsedLeaves(t, base)
		after := parsedLeaves(t, append(base, "-"+name+"="+e.value))
		for path, v := range after {
			switch {
			case path == e.field && v == before[path]:
				t.Errorf("-%s=%s left %s at its default %s", name, e.value, path, v)
			case path != e.field && v != before[path]:
				t.Errorf("-%s also wrote %s (%s → %s)", name, path, before[path], v)
			}
		}
	}
	got := parsedLeaves(t, all)
	for _, name := range names {
		e := flagTable[name]
		want := e.value
		if name == "proc" {
			want = strconv.Itoa(int(core.Superscalar))
		}
		if got[e.field] != want {
			t.Errorf("-%s=%s: %s = %s, want %s", name, e.value, e.field, got[e.field], want)
		}
		if got[e.field] == defaults[e.field] {
			t.Errorf("-%s: test value equals the default", name)
		}
	}

	opts := map[string]string{}
	leaves("", reflect.ValueOf(core.Options{}), opts)
	for path := range opts {
		_, flagged := byField["opts."+path]
		switch {
		case flagged && noFlag[path]:
			t.Errorf("Options.%s has a flag but is on the no-flag list", path)
		case !flagged && !noFlag[path]:
			t.Errorf("Options.%s has no flag and is not on the no-flag list", path)
		}
	}
	for path := range noFlag {
		if _, ok := opts[path]; !ok {
			t.Errorf("no-flag entry %s is not an Options field", path)
		}
	}
}
