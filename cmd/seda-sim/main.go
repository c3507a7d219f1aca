// Command seda-sim evaluates one (workload, NPU) pair across all
// memory-protection schemes, printing the traffic and performance
// breakdown, the per-layer optBlk choices under SeDA, and Table I.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/seda"
)

func main() {
	workload := flag.String("workload", "rest", "workload short name ("+strings.Join(model.Names(), ", ")+")")
	npuName := flag.String("npu", "server", "npu config: server or edge")
	table1 := flag.Bool("table1", false, "print Table I (multi-level granularity comparison) and exit")
	workers := flag.Int("workers", 0, "bound on concurrent schemes (0 = GOMAXPROCS, 1 = one goroutine end to end)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the evaluation to this file (pair with -workers 1 for a single-goroutine profile)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file (go tool trace)")
	timing := flag.Bool("timing", false, "print the pipeline span tree (per-stage wall times) to stderr as JSON when done")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "seda-sim: -workers must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	if *table1 {
		printTable1()
		return
	}

	profiles, err := obs.StartProfiles(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seda-sim:", err)
		os.Exit(1)
	}
	defer profiles.Stop() //nolint:errcheck

	var npu seda.NPUConfig
	switch *npuName {
	case "server":
		npu = seda.ServerNPU()
	case "edge":
		npu = seda.EdgeNPU()
	default:
		fmt.Fprintf(os.Stderr, "seda-sim: unknown npu %q (want server or edge)\n", *npuName)
		os.Exit(1)
	}

	net := model.ByName(*workload)
	if net == nil {
		fmt.Fprintf(os.Stderr, "seda-sim: unknown workload %q (known: %s)\n",
			*workload, strings.Join(model.Names(), ", "))
		os.Exit(1)
	}

	// Ctrl-C cancels the evaluation cooperatively instead of letting it
	// run to completion; a second signal kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timing {
		var tr *obs.Tracer
		ctx, tr = obs.NewTracer(ctx, "seda-sim")
		defer func() {
			tr.Finish()
			tr.WriteJSON(os.Stderr, true) //nolint:errcheck
		}()
	}
	suite, err := seda.RunSuiteOptsCtx(ctx, npu, []*model.Network{net}, seda.SuiteOptions{Workers: *workers})
	if err != nil {
		profiles.Stop() //nolint:errcheck // os.Exit skips the defer
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "seda-sim: interrupted")
			os.Exit(130) // conventional 128+SIGINT
		}
		fmt.Fprintln(os.Stderr, "seda-sim:", err)
		os.Exit(1)
	}

	rows := suite.Rows[net.Name]
	fmt.Printf("%s (%s) on %s NPU — %d layers, %.1f GMACs\n\n",
		net.Full, net.Name, npu.Name, len(net.Layers), float64(net.TotalMACs())/1e9)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tdata(MB)\tmeta(MB)\tnorm.traffic\tnorm.perf\texec(cycles)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.3f\t%.4f\t%.4f\t%d\n",
			r.Scheme.Name(),
			float64(r.DataBytes)/1e6, float64(r.MetaBytes)/1e6,
			r.NormTraffic, r.NormPerf, r.ExecCycles)
	}
	w.Flush() //nolint:errcheck

	sgx, _ := seda.SchemeRow(rows, memprot.SchemeSGX64)
	sd, _ := seda.SchemeRow(rows, memprot.SchemeSeDA)
	fmt.Printf("\nSeDA removes %.2f%% of SGX-64B's performance overhead on this workload.\n",
		(sgx.PerfOverhead()-sd.PerfOverhead())*100)
}

func printTable1() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table I — multi-level integrity verification granularities")
	fmt.Fprintln(w, "granularity\tflexibility\toff-chip access\toverhead\tstorage")
	for _, r := range core.GranularityTable() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n",
			r.Granularity, r.Flexibility, r.OffChipAccess, r.Overhead, r.Storage)
	}
	w.Flush() //nolint:errcheck
}
