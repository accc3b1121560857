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

// ScriptProgram is the behavioral model of one user process: a source of
// user-mode instructions (its Walker) plus a script of compute bursts and
// system calls, built from a Next function; the workload packages use it
// for their process models. The behavioral kernel consumes Steps, runs the
// bursts on the program's walker, and executes its own service code for
// the syscalls.
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
	// struct that NextFn/ResultFn close over). The checkpoint layer syncs it
	// in place; programs with no mutable script
	// state leave it nil.
	State ScriptState
}

// ScriptState is a program's mutable script state as the checkpoint layer
// sees it: it syncs itself with a section, in place.
type ScriptState interface {
	Sync(c *checkpoint.Codec)
}

// Name identifies the program ("gcc", "apache-12").
func (p *ScriptProgram) Name() string { return p.ProgName }

// Walker returns the source of the program's user-mode instructions.
func (p *ScriptProgram) Walker() *Walker { return p.W }

// Next returns the program's next step. The kernel calls it after the
// previous step completes (for blocking syscalls, after it unblocks the
// thread).
func (p *ScriptProgram) Next() Step { return p.NextFn() }

// OnSyscallResult reports a result the program reacts to (e.g. bytes read
// from a socket, 0 meaning connection closed).
func (p *ScriptProgram) OnSyscallResult(req sys.Request, result int) {
	if p.ResultFn != nil {
		p.ResultFn(req, result)
	}
}
