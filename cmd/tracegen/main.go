// Command tracegen dumps the synthetic instruction stream of a workload
// model, for inspecting what the pipeline actually fetches: the SPECInt
// benchmark models, the Apache server text, or one of the behavioral
// kernel's service routines (run through a small live simulation).
//
//	tracegen -program gcc -n 40
//	tracegen -program apache -n 100
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/isa"
	"repro/internal/workload"
	"repro/internal/workload/apache"
	"repro/internal/workload/specint"
)

func main() {
	var (
		program = flag.String("program", "gcc", "program: one of the SPECInt names, or apache")
		n       = flag.Int("n", 50, "instructions to dump")
		seed    = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()

	var w *workload.Walker
	switch *program {
	case "apache":
		srv := apache.New(apache.Config{Processes: 1, Seed: *seed})
		w = srv.Programs()[0].Walker()
	default:
		found := false
		for i, spec := range specint.Suite() {
			if spec.Name == *program {
				w = specint.New(spec, i+1, *seed).Walker()
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown program %q; try apache or one of:", *program)
			for _, s := range specint.Suite() {
				fmt.Fprintf(os.Stderr, " %s", s.Name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
	}
	fmt.Printf("%-4s %-18s %-13s %-6s %-18s %s\n", "#", "pc", "class", "taken", "addr/target", "deps")
	var in isa.Inst
	for i := 0; i < *n; i++ {
		w.NextInto(&in)
		addr := ""
		if in.Class.IsMem() {
			phys := ""
			if in.Physical {
				phys = " (phys)"
			}
			addr = fmt.Sprintf("%#x%s", in.Addr, phys)
		} else if in.ControlTransfer() {
			addr = fmt.Sprintf("-> %#x", in.Target)
		}
		fmt.Printf("%-4d %#-18x %-13s %-6v %-18s d1=%d d2=%d\n",
			i, in.PC, in.Class, in.Taken, addr, in.Dep1, in.Dep2)
	}
}
