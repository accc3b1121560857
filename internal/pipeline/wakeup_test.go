package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/rng"
)

// oracleOperandsReady is the readiness rule of the scanning issue stage the
// wakeup lists replaced: every producer in the context's window must have
// completed (its event popped) by now. It is the reference the derived
// state is checked against; the program has no second issue path.
func oracleOperandsReady(e *Engine, c *ctxState, u *uop) bool {
	for _, d := range [2]uint16{u.in.Dep1, u.in.Dep2} {
		if d == 0 || uint64(d) > u.seq {
			continue
		}
		target := u.seq - uint64(d)
		if target < c.headSeq {
			continue
		}
		dep := c.robAt(int(target - c.headSeq))
		if dep.state != stDone || dep.doneAt > e.now {
			return false
		}
	}
	return true
}

// oracleProducers returns the ROB offsets of u's distinct producers that
// the oracle rule still waits on.
func oracleProducers(e *Engine, c *ctxState, u *uop) []int {
	var out []int
	for _, d := range [2]uint16{u.in.Dep1, u.in.Dep2} {
		if d == 0 || uint64(d) > u.seq {
			continue
		}
		target := u.seq - uint64(d)
		if target < c.headSeq {
			continue
		}
		dep := c.robAt(int(target - c.headSeq))
		if dep.state == stDone && dep.doneAt <= e.now {
			continue
		}
		off := int(target - c.headSeq)
		if len(out) == 1 && out[0] == off {
			continue
		}
		out = append(out, off)
	}
	return out
}

// checkWakeupOracle compares the engine's derived issue state with what the
// oracle rule derives from the ROBs between cycles: each ready list must be
// exactly the oracle-ready queue members in ticket order, occupancy the
// member count with nothing dead, each pending count the member's waiting
// producers, and each waiter mask exactly the slots of the members waiting
// on that uop. Tickets must follow dispatch (sequence) order per context.
func checkWakeupOracle(e *Engine) error {
	if bad := e.CheckQueueConsistency(); len(bad) > 0 {
		return fmt.Errorf("auditor: %s", strings.Join(bad, "; "))
	}
	wantMask := make([][]uint64, len(e.ctxs))
	for qi, q := range [2]*issueQueue{&e.intQ, &e.fpQ} {
		var members, ready []qref
		for ctx := range e.ctxs {
			c := &e.ctxs[ctx]
			if wantMask[ctx] == nil {
				wantMask[ctx] = make([]uint64, len(c.rob))
			}
			var lastTicket uint64
			for i := 0; i < c.sz; i++ {
				u := c.robAt(i)
				if !u.inQueue || e.queueOf(u) != q {
					continue
				}
				if u.state != stQueued {
					return fmt.Errorf("queue %d: ctx%d seq%d marked in-queue in state %d", qi, ctx, u.seq, u.state)
				}
				if u.ticket <= lastTicket {
					return fmt.Errorf("queue %d: ctx%d seq%d ticket %d not after %d", qi, ctx, u.seq, u.ticket, lastTicket)
				}
				lastTicket = u.ticket
				r := qref{ctx: ctx, seq: u.seq, id: u.id, ticket: u.ticket}
				members = append(members, r)
				if oracleOperandsReady(e, c, u) {
					ready = append(ready, r)
				}
				prods := oracleProducers(e, c, u)
				if int(u.pending) != len(prods) {
					return fmt.Errorf("ctx%d seq%d: pending %d, oracle waits on %d producers", ctx, u.seq, u.pending, len(prods))
				}
				slot := (c.head + i) & (len(c.rob) - 1)
				for _, off := range prods {
					wantMask[ctx][(c.head+off)&(len(c.rob)-1)] |= 1 << uint(slot)
				}
			}
		}
		sort.Slice(ready, func(i, j int) bool { return ready[i].ticket < ready[j].ticket })
		if fmt.Sprint(ready) != fmt.Sprint(q.ready) {
			return fmt.Errorf("queue %d ready list %v, oracle %v", qi, q.ready, ready)
		}
		if q.live != len(members) || q.dead != 0 {
			return fmt.Errorf("queue %d occupancy live %d dead %d, oracle %d members", qi, q.live, q.dead, len(members))
		}
	}
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		for i := 0; i < c.sz; i++ {
			slot := (c.head + i) & (len(c.rob) - 1)
			if got, want := c.rob[slot].waiters, wantMask[ctx][slot]; got != want {
				return fmt.Errorf("ctx%d seq%d waiter mask %#x, oracle %#x", ctx, c.rob[slot].seq, got, want)
			}
		}
	}
	return nil
}

// fuzzFeed is randomFeed with two-operand dependences (sometimes naming
// one producer twice) and physical memory operations mixed in.
func fuzzFeed(seed uint64, nctx, perCtx int) *testFeed {
	f := randomFeed(seed, nctx, perCtx)
	r := rng.New(seed ^ 0x5bd1e995)
	for ctx := 0; ctx < nctx; ctx++ {
		for i := range f.bufs[ctx] {
			in := &f.bufs[ctx][i]
			switch r.Intn(4) {
			case 0:
				in.Dep2 = in.Dep1
			case 1:
				in.Dep2 = uint16(r.Intn(12))
			}
			if in.Addr != 0 && r.Bool(0.2) {
				in.Physical = true
			}
		}
	}
	return f
}

// runIssueOracle simulates one random configuration and checks the derived
// issue state against the oracle after every cycle.
func runIssueOracle(t *testing.T, seed uint64, nctx, iq, fq, regs, robLog, flags uint8) {
	cfg := SMTConfig()
	cfg.Contexts = 1 + int(nctx)%8
	cfg.FetchContexts = 1 + int(nctx>>4)%cfg.Contexts
	cfg.IntQueueSize = 1 + int(iq)%32
	cfg.FPQueueSize = 1 + int(fq)%32
	cfg.IntRegs = 1 + int(regs)%100
	cfg.FPRegs = 1 + int(regs>>3)%100
	cfg.ROBSize = 8 << (robLog % 4)
	cfg.AppOnly = flags&1 != 0
	cfg.RoundRobinFetch = flags&2 != 0
	f := fuzzFeed(seed, cfg.Contexts, 600)
	f.interrupts[uint64(seed%900)+40] = []int{int(seed) % cfg.Contexts}
	e := New(cfg, f, cache.NewHierarchy(cache.DefaultHierConfig()))
	f.e = e
	if flags&4 != 0 {
		e.EnableSampling(SampleConfig{Period: 700, DetailWindow: 200, Warmup: 100, Seed: seed})
	}
	for cyc := 0; cyc < 3000; cyc++ {
		e.Run(1)
		if err := checkWakeupOracle(e); err != nil {
			t.Fatalf("cycle %d (cfg %+v): %v", e.Now(), cfg, err)
		}
	}
}

// FuzzIssueStage differentially checks the wakeup-driven issue stage: over
// random configurations and programs, after every cycle the ready lists,
// pending counts, waiter masks and occupancy must equal what the scanning
// rule derives from the ROBs.
func FuzzIssueStage(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(31), uint8(31), uint8(99), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(3), uint8(2), uint8(9), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(0), uint8(5), uint8(31), uint8(40), uint8(0), uint8(2))
	f.Add(uint64(4), uint8(0x17), uint8(12), uint8(4), uint8(200), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, nctx, iq, fq, regs, robLog, flags uint8) {
		runIssueOracle(t, seed, nctx, iq, fq, regs, robLog, flags)
	})
}

func TestROBSizeMustFitWaiterMask(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "waiter mask") {
			t.Fatalf("ROBSize 128 accepted or rejected for the wrong reason: %v", r)
		}
	}()
	cfg := SMTConfig()
	cfg.ROBSize = 128
	New(cfg, newTestFeed(8), cache.NewHierarchy(cache.DefaultHierConfig()))
}

// TestAuditorFindsCorruptWaiterMask corrupts one producer's waiter mask and
// expects the auditor to report it.
func TestAuditorFindsCorruptWaiterMask(t *testing.T) {
	e := newBenchEngine()
	for i := 0; i < 200000 && !hasWaiters(e); i++ {
		e.step()
	}
	if !hasWaiters(e) {
		t.Fatal("no producer with waiters")
	}
	if bad := e.CheckQueueConsistency(); len(bad) > 0 {
		t.Fatalf("clean engine reported: %v", bad)
	}
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		for i := 0; i < c.sz; i++ {
			if u := c.robAt(i); u.waiters != 0 {
				u.waiters &= u.waiters - 1 // drop the lowest waiter
				bad := e.CheckQueueConsistency()
				if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), "waiter mask omits") {
					t.Fatalf("corrupt mask not reported: %v", bad)
				}
				return
			}
		}
	}
}

func hasWaiters(e *Engine) bool {
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		for i := 0; i < c.sz; i++ {
			if c.robAt(i).waiters != 0 {
				return true
			}
		}
	}
	return false
}

func saveBytes(e *Engine) []byte {
	var enc checkpoint.Codec
	e.Sync(&enc)
	return enc.Bytes()
}

func loadBench(t *testing.T, b []byte) *Engine {
	t.Helper()
	e := newBenchEngine()
	d := checkpoint.NewReader("engine", b)
	e.Sync(&d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMidFlightRestore saves an engine whose queues hold waiting uops,
// restores it into a fresh engine, and requires both to stay byte-identical
// for 10k cycles.
func TestMidFlightRestore(t *testing.T) {
	a := newBenchEngine()
	for i := 0; i < 200000 && !(hasWaiters(a) && len(a.intQ.ready) > 0 && a.intQ.live > len(a.intQ.ready)); i++ {
		a.step()
	}
	if !hasWaiters(a) {
		t.Fatal("never reached a cycle with waiting queue members")
	}
	b := loadBench(t, saveBytes(a))
	if err := checkWakeupOracle(b); err != nil {
		t.Fatalf("restored wakeup state: %v", err)
	}
	for i := 0; i < 10000; i++ {
		a.step()
		b.step()
	}
	if !bytes.Equal(saveBytes(a), saveBytes(b)) {
		t.Fatal("restored engine diverged within 10k cycles")
	}
}

// saveWithQueues returns e's section with the two issue-queue lists
// replaced by intRefs and fpRefs. Sync writes only live members, so this
// is how a checkpoint whose queue references name uops that are gone
// (damaged or hand-made input) is built. It fails the test if Sync no
// longer writes the queues right after the per-thread counters.
func saveWithQueues(t *testing.T, e *Engine, intRefs, fpRefs []qref) []byte {
	t.Helper()
	var pre, live, with checkpoint.Codec
	e.Hier.Sync(&pre)
	e.ITLB.Sync(&pre)
	e.DTLB.Sync(&pre)
	e.Pred.Sync(&pre)
	e.SB.Sync(&pre)
	e.Metrics.Sync(&pre)
	e.Cycles.Sync(&pre)
	e.Mix.Sync(&pre)
	pre.Uint(&e.now)
	pre.Uint(&e.nextID)
	checkpoint.Len(&pre, &e.perThread, -1, "thread statistics")
	for i := range e.perThread {
		pre.Uint(&e.perThread[i].Retired)
		pre.Uint(&e.perThread[i].CtxCycles)
	}
	liveInt, liveFP := e.queueRefs(&e.intQ), e.queueRefs(&e.fpQ)
	e.syncRefs(&live, &liveInt, -1)
	e.syncRefs(&live, &liveFP, -1)
	e.syncRefs(&with, &intRefs, -1)
	e.syncRefs(&with, &fpRefs, -1)
	full := saveBytes(e)
	head := append(append([]byte(nil), pre.Bytes()...), live.Bytes()...)
	if !bytes.HasPrefix(full, head) {
		t.Fatal("Sync no longer writes the issue queues after the per-thread counters")
	}
	return append(append(append([]byte(nil), pre.Bytes()...), with.Bytes()...), full[len(head):]...)
}

// TestRestoreHoldsDeadQueueCapacity restores a checkpoint whose queue
// references include uops squashed since the last issue stage. They must
// keep holding capacity until the next issue stage (DESIGN.md §6f, rule 6).
// The references are taken at the start of a cycle whose completions squash
// queue members, and spliced into a Save taken after retire; from there the
// restored engine must match the uninterrupted run byte for byte.
func TestRestoreHoldsDeadQueueCapacity(t *testing.T) {
	a := newBenchEngine()
	a.Run(20000)
	for i := 0; ; i++ {
		if i == 200000 {
			t.Fatal("no squash of queue members found")
		}
		intRefs, fpRefs := a.queueRefs(&a.intQ), a.queueRefs(&a.fpQ)
		for _, ctx := range a.Feed.Cycle(a.now) {
			a.deliverInterrupt(ctx)
		}
		a.completions()
		a.retire()
		if a.intQ.dead+a.fpQ.dead == 0 {
			finishStep(a)
			continue
		}
		b := loadBench(t, saveWithQueues(t, a, intRefs, fpRefs))
		if b.intQ.occupancy() != a.intQ.occupancy() || b.fpQ.occupancy() != a.fpQ.occupancy() {
			t.Fatalf("restored occupancy int %d fp %d, run has int %d fp %d",
				b.intQ.occupancy(), b.fpQ.occupancy(), a.intQ.occupancy(), a.fpQ.occupancy())
		}
		finishStep(a)
		finishStep(b)
		for j := 0; j < 10000; j++ {
			a.step()
			b.step()
		}
		if !bytes.Equal(saveBytes(a), saveBytes(b)) {
			t.Fatal("engine restored mid-cycle diverged within 10k cycles")
		}
		return
	}
}

// finishStep runs the rest of a cycle after completion and retire, as step
// does.
func finishStep(e *Engine) {
	e.dispatch()
	e.issue()
	e.fetch()
	e.attribute()
	e.Metrics.Cycles++
	e.now++
}

// fillNonZero sets every leaf of v, unexported fields included, to a
// non-zero value.
func fillNonZero(v reflect.Value) {
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			fillNonZero(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case v.Kind() == reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(v.Index(i))
		}
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.CanInt():
		v.SetInt(0x5a)
	case v.CanUint():
		v.SetUint(0x5a)
	case v.CanFloat():
		v.SetFloat(0.5)
	default:
		panic(fmt.Sprintf("fillNonZero: unhandled kind %s", v.Kind()))
	}
}

// TestPushResetsEveryField pushes into ROB slots whose every field holds a
// stale non-zero value and requires each result to equal the fresh uop
// push stands for. push writes the slot field by field, so a uop field it
// forgets (a stale waiter bit or pending count would corrupt wakeup) fails
// here.
func TestPushResetsEveryField(t *testing.T) {
	e := newBenchEngine()
	c := &e.ctxs[0]
	c.fetchIdx = 7
	var fin FedInst
	fin.PC, fin.Dep1, fin.TID, fin.PID = 0x4000, 2, 3, 9
	for _, wrongPath := range []bool{false, true} {
		fillNonZero(reflect.ValueOf(&c.rob[(c.head+c.sz)&(len(c.rob)-1)]).Elem())
		want := uop{
			in:        fin,
			idx:       c.fetchIdx - 1,
			seq:       c.nextSeq,
			id:        e.nextID + 1,
			state:     stFetched,
			fetchedAt: e.now,
			wrongPath: wrongPath,
		}
		if wrongPath {
			want.idx = ^uint64(0)
		}
		if got := e.push(c, &fin, wrongPath); !reflect.DeepEqual(*got, want) {
			t.Errorf("push (wrongPath %v) left\n%+v\nwant\n%+v", wrongPath, *got, want)
		}
	}
}
