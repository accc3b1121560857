// Package sys is the shared vocabulary between workload models (which issue
// system calls) and the behavioral kernel (which services them): syscall
// numbers, the request descriptor a program attaches to a call, and the
// kernel-service categories used by the paper's Figures 2, 6 and 7.
//
// The syscall set is the one the paper's Figure 7 breaks out for Apache —
// smmap, munmap, stat, read, write, writev, close, accept, select, open —
// plus the process-control and file-read calls that dominate SPECInt
// start-up (Figure 4).
package sys

import "fmt"

// Syscall numbers. Zero is reserved (no syscall).
const (
	SysNone uint16 = iota
	SysRead
	SysWrite
	SysWritev
	SysStat
	SysOpen
	SysClose
	SysAccept
	SysSelect
	SysSmmap
	SysMunmap
	SysFork
	SysExec
	SysExit
	SysGetpid
	SysSigaction
	SysIoctl

	// NumSyscalls is the size of dispatch tables.
	NumSyscalls
)

var sysNames = [NumSyscalls]string{
	"none", "read", "write", "writev", "stat", "open", "close",
	"accept", "select", "smmap", "munmap", "fork", "exec", "exit",
	"getpid", "sigaction", "ioctl",
}

// Name returns the syscall's name.
func Name(n uint16) string {
	if int(n) < len(sysNames) {
		return sysNames[n]
	}
	return fmt.Sprintf("sys%d", n)
}

// Structured syscall error results, returned as negative values through the
// syscall result path (the analogues of the Digital Unix errnos). A program
// that receives a negative result from accept/fork retries through its own
// state machine; the network clients recover via retransmit/backoff.
const (
	// ErrMfile: the calling process is at its per-process descriptor limit
	// (EMFILE, errno 24 on OSF/1).
	ErrMfile = -24
	// ErrAgain: a process-table slot (fork) was not available (EAGAIN,
	// errno 35 on OSF/1).
	ErrAgain = -35
)

// Resource classifies a syscall instance by the resource it operates on,
// for the right-hand chart of Figure 7 (network vs file vs process/other).
type Resource uint8

const (
	// ResNone is for calls with no dominant resource (getpid, sigaction).
	ResNone Resource = iota
	// ResFile operates on the file system.
	ResFile
	// ResNet operates on a socket / the network stack.
	ResNet
	// ResProcess is process creation and control.
	ResProcess
	// ResMemory is address-space manipulation (smmap/munmap).
	ResMemory
)

func (r Resource) String() string {
	switch r {
	case ResFile:
		return "file"
	case ResNet:
		return "network"
	case ResProcess:
		return "process"
	case ResMemory:
		return "memory"
	}
	return "other"
}

// Request describes one system-call invocation by a program.
type Request struct {
	// Num is the syscall number.
	Num uint16
	// Bytes is the payload size (read/write length, file size for stat
	// caching effects); it scales the kernel service's dynamic length.
	Bytes int
	// Resource tags the call for Figure 7's by-resource grouping; the
	// same syscall (read) can be file or network depending on the fd.
	Resource Resource
	// FD is an opaque descriptor; for network calls the kernel uses it to
	// find the socket (and may block the thread until data arrives).
	FD int
	// Addr is the address argument for smmap/munmap.
	Addr uint64
	// Blocking marks calls that may block awaiting external events
	// (select/accept/read on an empty socket).
	Blocking bool
}

// Category is the high-level kernel-time category of Figures 2 and 6.
type Category uint8

const (
	// CatSyscall is explicit system-call processing.
	CatSyscall Category = iota
	// CatDTLB is data-TLB miss handling (PAL + VM code).
	CatDTLB
	// CatITLB is instruction-TLB miss handling.
	CatITLB
	// CatInterrupt is interrupt processing (device + clock stubs).
	CatInterrupt
	// CatNetisr is the netisr protocol-stack kernel threads.
	CatNetisr
	// CatSched is the process scheduler and context switching.
	CatSched
	// CatSpin is kernel spin-lock waiting (§2.2.2: <1.2% of cycles for
	// SPECInt, <4.5% for Apache).
	CatSpin
	// CatIdle is the kernel idle loop.
	CatIdle
	// CatOtherKernel is remaining kernel activity (daemons, callouts).
	CatOtherKernel
	// CatUser is user-mode execution (not kernel, tracked for totals).
	CatUser

	// NumCategories is the number of categories.
	NumCategories = int(CatUser) + 1
)

var catNames = [NumCategories]string{
	"syscall", "dtlb-miss", "itlb-miss", "interrupt", "netisr",
	"scheduler", "spinlock", "idle", "other-kernel", "user",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}
