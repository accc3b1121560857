package workload

import (
	"repro/internal/checkpoint"
	"repro/internal/sys"
)

// StepKind says what a program does next.
type StepKind uint8

const (
	// StepRun executes N user-mode instructions.
	StepRun StepKind = iota
	// StepSyscall performs the system call described by Req.
	StepSyscall
	// StepExit terminates the process.
	StepExit
)

// Step is one element of a program's life: a compute burst, a system call,
// or exit.
type Step struct {
	Kind StepKind
	// N is the burst length in instructions for StepRun.
	N uint64
	// Req describes the call for StepSyscall.
	Req sys.Request
}

// Program is the behavioral model of one user process: a source of user-mode
// instructions (Walker) plus a script of compute bursts and system calls.
// The behavioral kernel consumes Steps, runs the bursts on the program's
// walker, and executes its own service code for the syscalls.
type Program interface {
	// Name identifies the program ("gcc", "apache-12").
	Name() string
	// Walker is the source of the program's user-mode instructions.
	Walker() *Walker
	// Next returns the program's next step. It is called after the
	// previous step completes (for blocking syscalls, after the kernel
	// unblocks the thread).
	Next() Step
	// OnSyscallResult lets the kernel report a result the program reacts
	// to (e.g. bytes read from a socket, 0 meaning connection closed).
	OnSyscallResult(req sys.Request, result int)
}

// ScriptProgram is a simple Program built from a fixed walker and a Next
// function; the workload packages use it for their process models.
type ScriptProgram struct {
	ProgName string
	W        *Walker
	NextFn   func() Step
	ResultFn func(req sys.Request, result int)

	// Slot distinguishes instances that share a ProgName (e.g. forked Apache
	// workers); together (ProgName, Slot) identify a program for checkpoint
	// restore.
	Slot int
	// State points at the program's script state (a workload-package-specific
	// struct that NextFn/ResultFn close over). The checkpoint layer saves it
	// and loads it back in place on restore; programs with no mutable script
	// state leave it nil.
	State ScriptState
}

// ScriptState is a program's mutable script state as the checkpoint layer
// sees it: it writes itself to a section and reads itself back in place.
type ScriptState interface {
	Save(e *checkpoint.Enc)
	Load(d *checkpoint.Dec)
}

// Name implements Program.
func (p *ScriptProgram) Name() string { return p.ProgName }

// Walker implements Program.
func (p *ScriptProgram) Walker() *Walker { return p.W }

// Next implements Program.
func (p *ScriptProgram) Next() Step { return p.NextFn() }

// OnSyscallResult implements Program.
func (p *ScriptProgram) OnSyscallResult(req sys.Request, result int) {
	if p.ResultFn != nil {
		p.ResultFn(req, result)
	}
}
