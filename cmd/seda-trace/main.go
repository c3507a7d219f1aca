// Command seda-trace inspects the DRAM traces the pipeline produces:
// per-layer schedule and traffic breakdown for a (workload, NPU,
// scheme) triple, optionally dumping raw accesses — the equivalent of
// SCALE-Sim's trace files plus the protection scheme's metadata
// accesses.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/internal/trace"
	"repro/seda"
)

func main() {
	workload := flag.String("workload", "let", "workload short name ("+strings.Join(model.Names(), ", ")+")")
	npuName := flag.String("npu", "edge", "npu config: server or edge")
	schemeName := flag.String("scheme", "SeDA", "protection scheme: Baseline, SGX-64B, SGX-512B, MGX-64B, MGX-512B, SeDA")
	dump := flag.Int("dump", 0, "dump the first N raw accesses per layer")
	raw := flag.Bool("raw", false, "disable overlay coalescing: dump the uncoalesced metadata stream, one entry per emission (figures are identical either way)")
	flag.Parse()

	net := model.ByName(*workload)
	if net == nil {
		fatal(fmt.Errorf("unknown workload %q (known: %s)",
			*workload, strings.Join(model.Names(), ", ")))
	}
	var npu seda.NPUConfig
	switch *npuName {
	case "server":
		npu = seda.ServerNPU()
	case "edge":
		npu = seda.EdgeNPU()
	default:
		fatal(fmt.Errorf("unknown npu %q", *npuName))
	}
	scheme, err := seda.SchemeByName(*schemeName)
	if err != nil {
		fatal(err)
	}

	arr, err := scalesim.New(npu.ArrayRows, npu.ArrayCols, npu.SRAMBytes)
	if err != nil {
		fatal(err)
	}
	sim, err := arr.SimulateNetwork(net)
	if err != nil {
		fatal(err)
	}
	opts := memprot.DefaultOptions()
	if *raw {
		opts.CoalesceOverlays = false
	}
	prots, err := memprot.ProtectAllArena([]memprot.Scheme{scheme}, sim, opts, nil)
	if err != nil {
		fatal(err)
	}
	prot := prots[0]

	fmt.Printf("%s on %s NPU under %s\n\n", net.Full, npu.Name, scheme.Name())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\ttiles\tgroups\tdata(KB)\tmac(KB)\tvn(KB)\ttree(KB)\toverfetch(KB)\toptBlk")
	for i, pl := range prot.Layers {
		lr := &sim.Layers[i]
		o := pl.Overhead
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%s\n",
			lr.Layer.Name, lr.Tiling.RowTiles, lr.Tiling.Groups,
			kb(o.DataBytes), kb(o.MACBytes), kb(o.VNBytes), kb(o.TreeBytes),
			kb(o.OverFetchBytes), optBlkStr(o.OptBlk))
	}
	w.Flush() //nolint:errcheck

	if *dump > 0 {
		// Walk the spine+overlay merge in place — the flat trace is
		// never materialized, matching what the DRAM model consumes.
		// The walk visits the whole layer and no-ops past the dump
		// limit; that costs nothing next to the simulation already run
		// and keeps the anchor-merge semantics in one place.
		for i := range prot.Layers {
			pl := &prot.Layers[i]
			fmt.Printf("\nlayer %d (%s): first %d accesses (%d data + %d overlay total)\n",
				i, sim.Layers[i].Layer.Name, *dump, pl.Spine.Len(), pl.Deltas.Len())
			printed := 0
			trace.ForEachMerged(pl.Spine, pl.Deltas, func(a *trace.Access) {
				if printed >= *dump {
					return
				}
				fmt.Printf("  cycle=%-10d %s %-9s addr=%#011x bytes=%d\n",
					a.Cycle, a.Kind, a.Class, a.Addr, a.Bytes)
				printed++
			})
		}
	}
}

func kb(b uint64) float64 { return float64(b) / 1024 }

func optBlkStr(b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%dB", b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seda-trace:", err)
	os.Exit(1)
}
