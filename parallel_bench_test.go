package dynplan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dynplan/internal/obs"
	"dynplan/internal/physical"
)

// BenchmarkParallelJoins measures what intra-query parallelism buys: the
// 3-relation chain query at a 96-page grant, serial versus DOP 2 and 4.
// The parallel-joins record prices the same runs in simulated time.
func BenchmarkParallelJoins(b *testing.B) {
	db, p, bind := parallelJoinsRig(b)
	ctx := context.Background()

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(ctx, p, bind, ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, dop := range []int{2, 4} {
		b.Run(fmt.Sprintf("dop-%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(ctx, p, bind, ExecOptions{Parallel: true, MaxDOP: dop}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelJoinsRig is the database, static plan, and bindings the
// parallel-joins benchmark and record share.
func parallelJoinsRig(tb testing.TB) (*Database, *Plan, Bindings) {
	sys, q := resilChainSystem(tb, 3)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		tb.Fatal(err)
	}
	return resilDatabase(tb, sys), p, resilBindings(3, 0.5, 96)
}

// parallelJoinsRecord is the parallel-joins record: the simulated
// critical-path speedup of the chain query at DOP 2 and 4, plus a
// hand-built Hash-Join pitting the symmetric streaming join against the
// serial materializing one for per-partition peak memory. Every metric
// derives from deterministic page and tuple counters (partitioning is by
// page range, RID chunk, and key hash, all seeded). The builder fails if
// DOP 4 does not reach a 1.5x simulated speedup or the answers diverge —
// the acceptance criteria of the parallel execution layer.
func parallelJoinsRecord(tb testing.TB) *obs.RunRecord {
	db, p, bind := parallelJoinsRig(tb)
	ctx := context.Background()
	params := DefaultParams()
	rates := obs.CostRates{
		SeqPage:  params.SeqPageTime,
		RandPage: params.RandIOTime,
		Write:    params.SeqPageTime,
		Tuple:    params.TupleCPUTime,
	}
	serial, err := db.Exec(ctx, p, bind, ExecOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	want := strings.Join(canonical(serial), "\n")
	serialSim := serial.SimulatedSeconds(params)
	rec := &obs.RunRecord{
		Query: "3-relation chain join at a 96-page grant: serial vs DOP 2 and 4, plus symmetric vs materializing hash join",
		Metrics: map[string]float64{
			"rows":              float64(len(serial.Rows)),
			"serial-sim-cost-s": serialSim,
		},
		// The headline total is the serial-equivalent account (identical
		// at every DOP — asserted below), so the record tracks the work
		// done, not the goroutine count doing it.
		SimCostTotal: serialSim,
	}
	for _, dop := range []int{2, 4} {
		res, err := db.Exec(ctx, p, bind, ExecOptions{Parallel: true, MaxDOP: dop})
		if err != nil {
			tb.Fatal(err)
		}
		if strings.Join(canonical(res), "\n") != want {
			tb.Fatalf("dop-%d rows diverge from serial", dop)
		}
		if got := res.SimulatedSeconds(params); got != serialSim {
			tb.Fatalf("dop-%d account %.6g != serial %.6g: parallelism changed the work", dop, got, serialSim)
		}
		if res.Parallel == nil || res.Parallel.DOP != dop {
			tb.Fatalf("dop-%d run reported %+v", dop, res.Parallel)
		}
		crit := res.Parallel.CriticalPathSeconds(serialSim, rates)
		rec.Metrics[fmt.Sprintf("dop%d-critical-path-s", dop)] = crit
		rec.Metrics[fmt.Sprintf("sim-speedup-dop%d", dop)] = serialSim / crit
		rec.Metrics[fmt.Sprintf("max-skew-dop%d", dop)] = res.Parallel.MaxSkew()
	}
	if speedup := rec.Metrics["sim-speedup-dop4"]; speedup < 1.5 {
		tb.Fatalf("DOP 4 simulated speedup %.2fx below the 1.5x acceptance floor", speedup)
	}

	// The streaming-join story: the same Hash-Join run materializing
	// (serial) and symmetric (parallel); the largest partition's memory
	// high-water is the streaming join's footprint.
	db.EnableObservability()
	defer db.DisableObservability()
	join := &physical.Node{
		Op: physical.HashJoin, LeftAttr: "C1.jh", RightAttr: "C2.jl",
		EdgeSel: 1.0 / 64, RowBytes: 1024,
		Children: []*physical.Node{
			{Op: physical.FileScan, Rel: "C1", BaseCard: 270, RowBytes: 512},
			{Op: physical.FileScan, Rel: "C2", BaseCard: 340, RowBytes: 512},
		},
	}
	jb := Bindings{MemoryPages: 96}
	sref, err := db.Exec(context.Background(), join, jb, ExecOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	pres, err := db.Exec(ctx, join, jb, ExecOptions{Parallel: true})
	if err != nil {
		tb.Fatal(err)
	}
	if strings.Join(canonical(pres), "\n") != strings.Join(canonical(sref), "\n") {
		tb.Fatal("symmetric join rows diverge from materializing join")
	}
	if pres.Parallel == nil || pres.Parallel.DOP <= 1 {
		tb.Fatalf("hash-join plan did not run parallel: %+v", pres.Parallel)
	}
	serialPeak := sref.Operators.Total().MemBytes
	parPeak := pres.Operators.Total().MemBytes
	if serialPeak == 0 || parPeak == 0 {
		tb.Fatalf("missing memory high-water (serial=%d parallel=%d)", serialPeak, parPeak)
	}
	if parPeak >= serialPeak {
		tb.Fatalf("per-partition peak %d bytes >= serial build %d bytes: partitioning bought nothing",
			parPeak, serialPeak)
	}
	rec.Metrics["join-serial-peak-mem-bytes"] = float64(serialPeak)
	rec.Metrics["join-parallel-peak-mem-bytes"] = float64(parPeak)
	rec.Metrics["join-peak-mem-reduction"] = float64(serialPeak) / float64(parPeak)
	return rec
}
