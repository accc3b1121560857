// Package specint models the multiprogrammed SPECInt95 workload of the
// paper's §2.3: all eight integer benchmarks (go, m88ksim, gcc, compress,
// li, ijpeg, perl, vortex) run together, one process each, on the
// 8-context SMT.
//
// The binaries and inputs are not redistributable, so each benchmark is a
// synthetic program (internal/workload) whose static code size, data
// working set, instruction mix, branch structure, and ILP are parameterized
// from the paper's own Table 2 and from the well-known characteristics of
// the suite (gcc/go: large code, hard branches; compress: small code,
// streaming data; li/perl: pointer chasing and indirect jumps; ijpeg:
// loop nests; vortex: large random data; m88ksim: mid-sized loops).
//
// Each program has the two phases the paper measures (Figure 1): a
// start-up phase — reading input files, mapping memory, first-touching the
// working set (which is what drives the kernel's page-allocation activity
// of Figure 3) — and a steady-state phase of long compute bursts with only
// occasional system calls.
package specint

import (
	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/sys"
	"repro/internal/workload"
)

// AppSpec parameterizes one benchmark model.
type AppSpec struct {
	// Name is the benchmark name.
	Name string
	// StaticInsts is the static code size in instructions.
	StaticInsts int
	// DataKB and HotKB size the main data region.
	DataKB, HotKB int
	// SeqFrac and ColdFrac shape its access pattern.
	SeqFrac, ColdFrac float64
	// CondTaken, LoopFrac, MeanTrips, SwitchTargets shape branches.
	CondTaken, LoopFrac, MeanTrips float64
	SwitchTargets                  int
	// FPFrac is the floating-point fraction (SPECInt has a little).
	FPFrac float64
	// MeanDep is the mean register dependence distance (ILP).
	MeanDep float64
	// InputReads is the number of 8 KB input-file reads at start-up.
	InputReads int
	// StartupInsts is the user-instruction length of the start-up phase.
	StartupInsts uint64
	// SteadyBurst is the compute burst length between steady-state steps.
	SteadyBurst uint64
	// SteadyCallEvery issues one light syscall every N steady bursts.
	SteadyCallEvery int
}

// Suite returns the eight SPECInt95 benchmark models.
func Suite() []AppSpec {
	return []AppSpec{
		{Name: "go", StaticInsts: 24000, DataKB: 512, HotKB: 8, SeqFrac: 0.3, ColdFrac: 0.03,
			CondTaken: 0.55, LoopFrac: 0.18, MeanTrips: 8, SwitchTargets: 5, FPFrac: 0,
			MeanDep: 8, InputReads: 4, StartupInsts: 900_000, SteadyBurst: 60_000, SteadyCallEvery: 10},
		{Name: "m88ksim", StaticInsts: 12000, DataKB: 256, HotKB: 8, SeqFrac: 0.4, ColdFrac: 0.03,
			CondTaken: 0.6, LoopFrac: 0.35, MeanTrips: 25, SwitchTargets: 3, FPFrac: 0.01,
			MeanDep: 9, InputReads: 3, StartupInsts: 700_000, SteadyBurst: 80_000, SteadyCallEvery: 12},
		{Name: "gcc", StaticInsts: 40000, DataKB: 1024, HotKB: 10, SeqFrac: 0.3, ColdFrac: 0.04,
			CondTaken: 0.55, LoopFrac: 0.15, MeanTrips: 6, SwitchTargets: 8, FPFrac: 0,
			MeanDep: 8, InputReads: 8, StartupInsts: 1_300_000, SteadyBurst: 50_000, SteadyCallEvery: 6},
		{Name: "compress", StaticInsts: 4000, DataKB: 2048, HotKB: 12, SeqFrac: 0.75, ColdFrac: 0.04,
			CondTaken: 0.62, LoopFrac: 0.5, MeanTrips: 60, SwitchTargets: 2, FPFrac: 0,
			MeanDep: 10, InputReads: 6, StartupInsts: 500_000, SteadyBurst: 100_000, SteadyCallEvery: 15},
		{Name: "li", StaticInsts: 9000, DataKB: 384, HotKB: 8, SeqFrac: 0.2, ColdFrac: 0.04,
			CondTaken: 0.5, LoopFrac: 0.2, MeanTrips: 10, SwitchTargets: 6, FPFrac: 0,
			MeanDep: 6, InputReads: 2, StartupInsts: 550_000, SteadyBurst: 70_000, SteadyCallEvery: 9},
		{Name: "ijpeg", StaticInsts: 11000, DataKB: 768, HotKB: 10, SeqFrac: 0.7, ColdFrac: 0.03,
			CondTaken: 0.68, LoopFrac: 0.55, MeanTrips: 40, SwitchTargets: 2, FPFrac: 0.06,
			MeanDep: 12, InputReads: 5, StartupInsts: 650_000, SteadyBurst: 120_000, SteadyCallEvery: 14},
		{Name: "perl", StaticInsts: 20000, DataKB: 512, HotKB: 8, SeqFrac: 0.3, ColdFrac: 0.03,
			CondTaken: 0.52, LoopFrac: 0.18, MeanTrips: 7, SwitchTargets: 7, FPFrac: 0.01,
			MeanDep: 8, InputReads: 4, StartupInsts: 800_000, SteadyBurst: 60_000, SteadyCallEvery: 8},
		{Name: "vortex", StaticInsts: 26000, DataKB: 3072, HotKB: 12, SeqFrac: 0.3, ColdFrac: 0.05,
			CondTaken: 0.58, LoopFrac: 0.22, MeanTrips: 12, SwitchTargets: 4, FPFrac: 0,
			MeanDep: 9, InputReads: 7, StartupInsts: 1_000_000, SteadyBurst: 70_000, SteadyCallEvery: 7},
	}
}

// profile maps an AppSpec onto a workload.Profile, with the user-mode
// instruction mix of the paper's Table 2 (loads ~20%, stores ~10%, branches
// ~15% of which two-thirds conditional).
func profile(a AppSpec) workload.Profile {
	return workload.Profile{
		Name:        a.Name,
		Mode:        isa.User,
		StaticInsts: a.StaticInsts,
		Mix: workload.Mix{
			Load: 0.195, Store: 0.105, FP: a.FPFrac,
			// Static transfer shares below Table 2's dynamic targets; the
			// dynamic stream amplifies call and jump sites.
			CondBr: 0.099, UncondBr: 0.014, IndirectJump: 0.013,
		},
		CondTaken:     a.CondTaken,
		LoopFrac:      a.LoopFrac,
		MeanTrips:     a.MeanTrips,
		CallFrac:      0.5,
		SwitchTargets: a.SwitchTargets,
		Data: []workload.DataSpec{
			{Size: uint64(a.DataKB) << 10, Hot: uint64(a.HotKB) << 10, Weight: 3,
				SeqFrac: a.SeqFrac, ColdFrac: a.ColdFrac},
			// A small stack region with tight locality.
			{Size: 64 << 10, Hot: 2 << 10, Weight: 1, SeqFrac: 0.3, ColdFrac: 0.01},
		},
		MeanDep: a.MeanDep,
	}
}

// phase tracks a program's position in its lifecycle.
type phase uint8

const (
	phStartup phase = iota
	phSteady
)

// New builds the benchmark program for spec as process number pid (1-based
// workload slot; address-space placement only).
func New(spec AppSpec, slot int, seed uint64) *workload.ScriptProgram {
	r := rng.New(seed ^ uint64(slot)<<32 ^ 0x5bec)
	base := uint64(mem.UserTextBase) + uint64(slot)*mem.PIDStride
	layout := func(i int, _ workload.DataSpec) uint64 {
		if i == 1 {
			return uint64(mem.UserStackBase) + uint64(slot)*mem.PIDStride
		}
		return uint64(mem.UserDataBase) + uint64(slot)*mem.PIDStride
	}
	reg := workload.Build(profile(spec), base, layout, r.Split(1))
	w := workload.NewWalker(reg, r.Split(2))
	w.ResetEvery = uint64(6 * spec.StaticInsts)

	ps := &ProcState{
		ReadsLeft: spec.InputReads,
		Prng:      r.Split(3),
	}

	next := func() workload.Step {
		switch ps.Ph {
		case phStartup:
			// The very first activity is the shell's fork+exec of the
			// benchmark (the paper's Figure 4 shows process creation and
			// control filling much of the start-up syscall time).
			if ps.Spawn == 0 {
				ps.Spawn = 1
				return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
					Num: sys.SysFork, Resource: sys.ResProcess,
				}}
			}
			if ps.Spawn == 1 {
				ps.Spawn = 2
				return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
					Num: sys.SysExec, Resource: sys.ResProcess,
				}}
			}
			if ps.Spawn == 2 {
				ps.Spawn = 3
				return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
					Num: sys.SysSigaction,
				}}
			}
			// Interleave compute with input-file reads and an occasional
			// mmap, like a program parsing its inputs.
			if ps.Ran >= spec.StartupInsts && ps.ReadsLeft == 0 {
				ps.Ph = phSteady
				return workload.Step{Kind: workload.StepRun, N: spec.SteadyBurst}
			}
			if ps.ReadsLeft > 0 && ps.Prng.Bool(0.35) {
				if !ps.Opened {
					ps.Opened = true
					return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
						Num: sys.SysOpen, Resource: sys.ResFile,
					}}
				}
				ps.ReadsLeft--
				return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
					Num: sys.SysRead, Bytes: 8192, Resource: sys.ResFile,
				}}
			}
			if ps.Prng.Bool(0.06) {
				return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
					Num: sys.SysSmmap, Resource: sys.ResMemory,
				}}
			}
			n := spec.StartupInsts / 20
			if n == 0 {
				n = 1000
			}
			ps.Ran += n
			return workload.Step{Kind: workload.StepRun, N: n}
		default:
			ps.Bursts++
			if spec.SteadyCallEvery > 0 && ps.Bursts%spec.SteadyCallEvery == 0 {
				// Rare steady-state syscalls (status checks, small reads).
				if ps.Prng.Bool(0.5) {
					return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
						Num: sys.SysRead, Bytes: 4096, Resource: sys.ResFile,
					}}
				}
				return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
					Num: sys.SysGetpid,
				}}
			}
			return workload.Step{Kind: workload.StepRun, N: spec.SteadyBurst}
		}
	}

	return &workload.ScriptProgram{
		ProgName: spec.Name,
		W:        w,
		NextFn:   next,
		Slot:     slot,
		State:    ps,
	}
}

// ProcState is one benchmark's mutable script state; the program closures
// access it through a pointer published as ScriptProgram.State for the
// checkpoint layer.
type ProcState struct {
	Ph        phase
	Ran       uint64
	ReadsLeft int
	Opened    bool
	Bursts    int
	Spawn     int
	Prng      *rng.Rand
}

// Save writes the script state to a checkpoint section.
func (ps *ProcState) Save(e *checkpoint.Enc) {
	e.Uint(uint64(ps.Ph))
	e.Uint(ps.Ran)
	e.Int(int64(ps.ReadsLeft))
	e.Bool(ps.Opened)
	e.Int(int64(ps.Bursts))
	e.Int(int64(ps.Spawn))
	ps.Prng.Save(e)
}

// Load reads script state written by Save, in place.
func (ps *ProcState) Load(d *checkpoint.Dec) {
	ps.Ph = phase(d.Uint())
	ps.Ran = d.Uint()
	ps.ReadsLeft = int(d.Int())
	ps.Opened = d.Bool()
	ps.Bursts = int(d.Int())
	ps.Spawn = int(d.Int())
	ps.Prng.Load(d)
}

// Programs builds the full multiprogrammed suite.
func Programs(seed uint64) []*workload.ScriptProgram {
	specs := Suite()
	out := make([]*workload.ScriptProgram, len(specs))
	for i, s := range specs {
		out[i] = New(s, i+1, seed)
	}
	return out
}
