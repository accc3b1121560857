package kernel

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/sys"
	"repro/internal/workload"
)

// svcSpec sets a system-call service's dynamic cost: a fixed dispatch/
// bookkeeping part plus a per-KB data-movement part. The values are
// calibrated so that the Apache workload's Figure 7 shape (stat and
// network read/write dominating; file and network services roughly
// balanced) and the SPECInt workload's Figure 4 shape (file reads during
// start-up) emerge from the programs' call patterns.
type svcSpec struct {
	base  int
	perKB int
	res   sys.Resource
}

var svcSpecs = map[uint16]svcSpec{
	sys.SysRead:      {base: 2200, perKB: 400, res: sys.ResFile},
	sys.SysWrite:     {base: 2200, perKB: 400, res: sys.ResFile},
	sys.SysWritev:    {base: 2600, perKB: 280, res: sys.ResNet},
	sys.SysStat:      {base: 5600, perKB: 0, res: sys.ResFile},
	sys.SysOpen:      {base: 3600, perKB: 0, res: sys.ResFile},
	sys.SysClose:     {base: 1400, perKB: 0, res: sys.ResFile},
	sys.SysAccept:    {base: 3800, perKB: 0, res: sys.ResNet},
	sys.SysSelect:    {base: 3200, perKB: 0, res: sys.ResNet},
	sys.SysSmmap:     {base: 4200, perKB: 0, res: sys.ResMemory},
	sys.SysMunmap:    {base: 3600, perKB: 0, res: sys.ResMemory},
	sys.SysFork:      {base: 28000, perKB: 0, res: sys.ResProcess},
	sys.SysExec:      {base: 36000, perKB: 0, res: sys.ResProcess},
	sys.SysExit:      {base: 14000, perKB: 0, res: sys.ResProcess},
	sys.SysGetpid:    {base: 350, perKB: 0, res: sys.ResNone},
	sys.SysSigaction: {base: 700, perKB: 0, res: sys.ResNone},
	sys.SysIoctl:     {base: 1600, perKB: 0, res: sys.ResFile},
}

// dynLen returns the dynamic instruction count for one invocation.
func dynLen(req sys.Request) int {
	sp, ok := svcSpecs[req.Num]
	if !ok {
		return 800
	}
	n := sp.base
	if req.Bytes > 0 && sp.perKB > 0 {
		n += sp.perKB * ((req.Bytes + 1023) / 1024)
	}
	return n
}

// Fixed dynamic lengths of the non-syscall kernel paths.
const (
	palDTLBLen     = 36  // PAL dstream miss handler (fast path)
	vmFaultLen     = 520 // kernel VM: page allocation on first touch
	vmReclaimLen   = 1400
	palITLBLen     = 30
	palSysEntryLen = 90 // callsys PAL entry + kernel preamble trampoline
	preambleLen    = 260
	palIntrLen     = 70
	intrDevLen     = 900 // device interrupt processing (wakes netisr)
	clockIntrLen   = 350
	schedLen       = 1500 // context switch: pick thread, swap ASN state
	netisrFrameLen = 8000
	spinMeanLen    = 260  // mean spin-wait burst when a kernel lock is busy
	diskDriverLen  = 2600 // disk-driver + DMA-setup path on a buffer-cache miss // protocol stack work per frame
	idleChunk      = 24   // idle-loop instructions generated per refill
)

// regionWalker couples a static region with per-context dynamic walkers.
// Kernel code is reentrant and each hardware context runs its own kernel
// control flow (its own kernel stack), so walkers are per context — sharing
// one would interleave call/return chains across contexts, which no
// return-address stack could follow.
type regionWalker struct {
	reg *workload.Region
	ws  []*workload.Walker
}

// walker returns the dynamic walker this code uses on context ctx; a
// generation-stack entry or a trap handler draws a counted excerpt from it.
func (rw *regionWalker) walker(ctx int) *workload.Walker {
	return rw.ws[ctx%len(rw.ws)]
}

// codebase holds every kernel and PAL code region.
type codebase struct {
	all []*workload.Region // every region, for prewarming
	// byName indexes every regionWalker by its (unique) region name, for
	// checkpoint serialization of walker state and stack-entry descriptors.
	byName map[string]*regionWalker

	palDTLB *regionWalker
	palITLB *regionWalker
	palSys  *regionWalker
	palIntr *regionWalker

	preamble *regionWalker
	spin     *regionWalker
	disk     *regionWalker
	vm       *regionWalker
	sched    *regionWalker
	netisr   *regionWalker
	intrDev  *regionWalker
	idle     *regionWalker
	other    *regionWalker

	services map[uint16]*regionWalker
}

// kernelMix is the instruction mix of kernel code, from the kernel columns
// of the paper's Tables 2 and 5 (loads ~16%, stores ~13%, branches ~16%
// with mostly conditional, little FP, a few synchronization ops for the
// kernel's spin locks).
func kernelMix() workload.Mix {
	return workload.Mix{
		Load: 0.17, Store: 0.12, FP: 0,
		Sync: 0.015,
		// Static shares are set below their Table 2/5 dynamic targets for
		// the transfer classes: the dynamic stream amplifies call/jump
		// sites (hot functions are *reached* through them).
		CondBr: 0.110, UncondBr: 0.012, IndirectJump: 0.015,
	}
}

// buildCodebase lays out kernel text, PAL text and kernel data, and builds
// all regions with per-context walkers.
func buildCodebase(r *rng.Rand, contexts int) *codebase {
	cb := &codebase{
		services: map[uint16]*regionWalker{},
		byName:   map[string]*regionWalker{},
	}

	kernText := uint64(mem.KernelTextBase)
	palText := uint64(mem.PALTextBase)
	kernData := uint64(mem.KernelDataBase)
	physData := uint64(mem.KernelPhysBase)

	carveText := func(base *uint64, insts int) uint64 {
		a := *base
		*base += uint64(insts)*4 + 0x2000 // pad to separate regions
		return a
	}
	sharedBases := map[string]uint64{}
	carveData := func(base *uint64, size uint64) uint64 {
		a := *base
		*base += size + 0x4000
		return a
	}

	build := func(name string, mode isa.Mode, static int, p workload.Profile, textBase *uint64) *regionWalker {
		p.Name = name
		p.Mode = mode
		p.StaticInsts = static
		layout := func(i int, spec workload.DataSpec) uint64 {
			if spec.ShareKey != "" {
				if b, ok := sharedBases[spec.ShareKey]; ok {
					return b
				}
			}
			var b uint64
			if spec.Physical {
				if physData+spec.Size >= mem.KernelPhysBase+mem.KernelPhysSize {
					physData = mem.KernelPhysBase // wrap: regions may share
				}
				b = carveData(&physData, spec.Size)
			} else {
				b = carveData(&kernData, spec.Size)
			}
			if spec.ShareKey != "" {
				sharedBases[spec.ShareKey] = b
			}
			return b
		}
		reg := workload.Build(p, carveText(textBase, static), layout, r.Split(uint64(len(cb.services))^uint64(static)))
		cb.all = append(cb.all, reg)
		rw := &regionWalker{reg: reg}
		for c := 0; c < contexts; c++ {
			w := workload.NewWalker(reg, r.Split(uint64(static)*31+uint64(c)))
			w.ResetEvery = uint64(8 * static)
			rw.ws = append(rw.ws, w)
		}
		cb.byName[name] = rw
		return rw
	}

	// Kernel-mode profile template. PhysFrac ~0.5 reproduces the paper's
	// observation that about half of kernel memory operations bypass the
	// TLB. Kernel branch sites are mostly forward diamonds, rarely taken.
	kp := func(data []workload.DataSpec) workload.Profile {
		return workload.Profile{
			Mix:            kernelMix(),
			CondTaken:      0.35,
			LoopFrac:       0.06,
			MeanTrips:      6,
			CallFrac:       0.55,
			SwitchTargets:  3,
			Data:           data,
			PhysFrac:       0.5,
			MeanDep:        5,
			HardBranchFrac: 0.06,
		}
	}
	// Shared kernel data: a virtual region (globally mapped) and a
	// physical region.
	sharedData := func(virtMB, virtHotKB, physMB, physHotKB int) []workload.DataSpec {
		return []workload.DataSpec{
			{Size: uint64(virtMB) << 20, Hot: uint64(virtHotKB) << 10, Weight: 1, SeqFrac: 0.3, ColdFrac: 0.06},
			{Size: uint64(physMB) << 20, Hot: uint64(physHotKB) << 10, Weight: 1, Physical: true, SeqFrac: 0.35, ColdFrac: 0.05},
		}
	}

	// PAL code: physically addressed data only, straight-line style.
	pp := func() workload.Profile {
		return workload.Profile{
			Mix: workload.Mix{
				Load: 0.18, Store: 0.10,
				CondBr: 0.08, UncondBr: 0.02, IndirectJump: 0.015,
			},
			CondTaken:     0.3,
			LoopFrac:      0.02,
			MeanTrips:     3,
			CallFrac:      0.3,
			SwitchTargets: 3,
			Data: []workload.DataSpec{
				{Size: 512 << 10, Hot: 8 << 10, Weight: 1, Physical: true, SeqFrac: 0.3, ColdFrac: 0.04},
			},
			PhysFrac: 1,
			MeanDep:  2,
		}
	}

	cb.palDTLB = build("pal-dtlb", isa.PAL, 160, pp(), &palText)
	cb.palITLB = build("pal-itlb", isa.PAL, 128, pp(), &palText)
	cb.palSys = build("pal-callsys", isa.PAL, 220, pp(), &palText)
	cb.palIntr = build("pal-interrupt", isa.PAL, 200, pp(), &palText)

	cb.preamble = build("preamble", isa.Kernel, 4000, kp(sharedData(1, 4, 1, 4)), &kernText)
	// The VM layer runs on the TLB-miss path: like the real PAL/PTE walk,
	// it must reference its data physically, or handling one fault could
	// raise another without bound.
	vmProf := kp([]workload.DataSpec{
		{Size: 2 << 20, Hot: 8 << 10, Weight: 1, Physical: true, SeqFrac: 0.4, ColdFrac: 0.04},
	})
	vmProf.PhysFrac = 1
	cb.vm = build("vm", isa.Kernel, 16000, vmProf, &kernText)
	cb.sched = build("sched", isa.Kernel, 12000, kp(sharedData(1, 4, 1, 4)), &kernText)
	cb.netisr = build("netisr", isa.Kernel, 30000, kp(sharedData(1, 8, 1, 8)), &kernText)
	cb.intrDev = build("intr-dev", isa.Kernel, 7000, kp(sharedData(1, 4, 1, 4)), &kernText)
	cb.other = build("other", isa.Kernel, 16000, kp(sharedData(1, 4, 1, 4)), &kernText)

	// Spin-lock wait loop: load-locked/store-conditional retries over a
	// handful of lock words.
	spinProf := workload.Profile{
		Mix:       workload.Mix{Load: 0.25, Sync: 0.25, CondBr: 0.2},
		CondTaken: 0.9,
		LoopFrac:  0.9,
		MeanTrips: 30,
		Data: []workload.DataSpec{
			{Size: 4 << 10, Hot: 512, Weight: 1, Physical: true},
		},
		PhysFrac: 1,
		MeanDep:  2,
	}
	cb.spin = build("spinlock", isa.Kernel, 64, spinProf, &kernText)
	// The disk driver: executed in full on buffer-cache misses even though
	// the simulated disk itself has zero latency (§2.2.1).
	cb.disk = build("disk-driver", isa.Kernel, 9000, kp(sharedData(1, 8, 1, 8)), &kernText)

	// The idle loop: a tiny spin over a few kernel lines.
	idleProf := workload.Profile{
		Mix:       workload.Mix{Load: 0.1, CondBr: 0.2},
		CondTaken: 0.9,
		LoopFrac:  0.9,
		MeanTrips: 50,
		Data: []workload.DataSpec{
			{Size: 8 << 10, Hot: 1 << 10, Weight: 1, Physical: true},
		},
		PhysFrac: 1,
		MeanDep:  2,
	}
	cb.idle = build("idle", isa.Idle, 48, idleProf, &kernText)

	// System-call services. The file-oriented ones share a large
	// physically-addressed buffer-cache region (the paper's Apache file
	// set lives in the OS file cache); network ones a socket-buffer
	// region.
	// One buffer cache and one socket-buffer pool, shared by every service
	// (a kernel has a single instance of each).
	fileData := []workload.DataSpec{
		{Size: 1 << 20, Hot: 8 << 10, Weight: 1, SeqFrac: 0.3, ColdFrac: 0.06, ShareKey: "fs-virt"},
		{Size: 3 << 20, Hot: 8 << 10, Weight: 2.2, Physical: true, SeqFrac: 0.5, ColdFrac: 0.03, Stream: true, ShareKey: "bufcache"},
	}
	netData := []workload.DataSpec{
		{Size: 1 << 20, Hot: 8 << 10, Weight: 1, SeqFrac: 0.3, ColdFrac: 0.06, ShareKey: "net-virt"},
		{Size: 2 << 20, Hot: 8 << 10, Weight: 2, Physical: true, SeqFrac: 0.5, ColdFrac: 0.03, Stream: true, ShareKey: "sockbuf"},
	}
	staticSize := map[uint16]int{
		sys.SysRead: 26000, sys.SysWrite: 26000, sys.SysWritev: 28000,
		sys.SysStat: 22000, sys.SysOpen: 24000, sys.SysClose: 10000,
		sys.SysAccept: 24000, sys.SysSelect: 20000,
		sys.SysSmmap: 18000, sys.SysMunmap: 16000,
		sys.SysFork: 36000, sys.SysExec: 44000, sys.SysExit: 20000,
		sys.SysGetpid: 1500, sys.SysSigaction: 4000, sys.SysIoctl: 8000,
	}
	for no := uint16(1); no < sys.NumSyscalls; no++ {
		data := fileData
		if sp := svcSpecs[no]; sp.res == sys.ResNet {
			data = netData
		}
		p := kp(data)
		static := staticSize[no]
		if static == 0 {
			static = 4000
		}
		cb.services[no] = build("sys-"+sys.Name(no), isa.Kernel, static, p, &kernText)
	}
	return cb
}
