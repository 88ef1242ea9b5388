// Command avbench regenerates the paper's evaluation tables (§V) on the
// synthetic dataset substitutes at laptop scale, plus this repo's own
// hot-path experiment.
//
// Usage:
//
//	avbench [-experiment all|table1|table2|table3|table4|table5|table6|table7|materialization|workload|ablations|hotpath|server|adaptive|ingest|tracing|manifest|history]
//	        [-scale default|quick] [-workdir DIR]
//	        [-parallelism N] [-cache-bytes N] [-json-dir DIR]
//
// Each experiment prints a table mirroring the paper's rows; see
// EXPERIMENTS.md for the paper-vs-measured comparison. The hotpath,
// server, and adaptive experiments additionally write
// BENCH_hotpath.json (ns/op, MB/s, cache hit rate), BENCH_server.json
// (remote select throughput vs client fan-out), and BENCH_adaptive.json
// (skewed-trace read amplification before/after an adaptive tuner pass)
// into -json-dir so the perf trajectory is machine-trackable across
// PRs. JSON results are committed by writing a hidden temp file and
// renaming it into place, so an interrupted run can never leave a torn
// BENCH_*.json for a CI artifact step to archive.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"arrayvers/internal/bench"
	"arrayvers/internal/core"
)

func main() {
	experiment := flag.String("experiment", "all", "all, table1..table7, materialization, workload, ablations, hotpath, server, adaptive, ingest, tracing, manifest, or history")
	scaleName := flag.String("scale", "default", "scale preset: default or quick")
	workdir := flag.String("workdir", "", "scratch directory (default: a temp dir)")
	parallelism := flag.Int("parallelism", 0, "hot-path worker pool size (0 = GOMAXPROCS, 1 = serial)")
	cacheBytes := flag.Int64("cache-bytes", core.DefaultCacheBytes, "decoded-chunk cache budget in bytes (0 disables)")
	jsonDir := flag.String("json-dir", ".", "directory for machine-readable BENCH_*.json results (empty disables)")
	flag.Parse()

	var sc bench.Scale
	switch *scaleName {
	case "default":
		sc = bench.DefaultScale()
	case "quick":
		sc = bench.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "avbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	dir := *workdir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "avbench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}

	hotpath := func() {
		t, report, err := bench.HotPath(dir, sc, *parallelism, *cacheBytes)
		emit(t, err)
		if *jsonDir != "" {
			if err := writeJSON(filepath.Join(*jsonDir, "BENCH_hotpath.json"), report); err != nil {
				fatal(err)
			}
		}
	}

	serverExp := func() {
		t, results, err := bench.Server(dir, sc, *parallelism, *cacheBytes)
		emit(t, err)
		if *jsonDir != "" {
			if err := writeJSON(filepath.Join(*jsonDir, "BENCH_server.json"), results); err != nil {
				fatal(err)
			}
		}
	}

	adaptive := func() {
		t, results, err := bench.Adaptive(dir, sc, *parallelism)
		emit(t, err)
		if *jsonDir != "" {
			if err := writeJSON(filepath.Join(*jsonDir, "BENCH_adaptive.json"), results); err != nil {
				fatal(err)
			}
		}
	}

	ingest := func() {
		t, results, err := bench.Ingest(dir, sc, *parallelism)
		emit(t, err)
		if *jsonDir != "" {
			if err := writeJSON(filepath.Join(*jsonDir, "BENCH_ingest.json"), results); err != nil {
				fatal(err)
			}
		}
	}

	tracing := func() {
		t, results, err := bench.Tracing(dir, sc, *parallelism, *cacheBytes)
		emit(t, err)
		if *jsonDir != "" {
			if err := writeJSON(filepath.Join(*jsonDir, "BENCH_tracing.json"), results); err != nil {
				fatal(err)
			}
		}
	}

	manifest := func() {
		t, results, err := bench.Manifest(dir, sc, *parallelism)
		emit(t, err)
		if *jsonDir != "" {
			if err := writeJSON(filepath.Join(*jsonDir, "BENCH_manifest.json"), results); err != nil {
				fatal(err)
			}
		}
	}

	history := func() {
		t, results, err := bench.History(dir, sc, *parallelism, *cacheBytes)
		emit(t, err)
		if *jsonDir != "" {
			if err := writeJSON(filepath.Join(*jsonDir, "BENCH_history.json"), results); err != nil {
				fatal(err)
			}
		}
	}

	run := func(name string) {
		switch name {
		case "hotpath":
			hotpath()
		case "server":
			serverExp()
		case "adaptive":
			adaptive()
		case "ingest":
			ingest()
		case "tracing":
			tracing()
		case "manifest":
			manifest()
		case "history":
			history()
		case "table1":
			t, err := bench.Table1(sc)
			emit(t, err)
		case "table2":
			t, err := bench.Table2(sc)
			emit(t, err)
		case "table3", "table4":
			t3, t4, err := bench.Table3And4(dir, sc)
			if name == "table3" {
				emit(t3, err)
			} else {
				emit(t4, err)
			}
		case "table5":
			t, err := bench.Table5(dir, sc)
			emit(t, err)
		case "table6":
			t, err := bench.Table6(dir, sc)
			emit(t, err)
		case "table7":
			t, err := bench.Table7(dir, sc)
			emit(t, err)
		case "materialization":
			t, err := bench.Materialization(dir, sc)
			emit(t, err)
		case "workload":
			t, err := bench.WorkloadAware(dir, sc)
			emit(t, err)
		case "ablations":
			t, err := bench.Ablations(dir, sc)
			emit(t, err)
		default:
			fmt.Fprintf(os.Stderr, "avbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *experiment == "all" {
		t1, err := bench.Table1(sc)
		emit(t1, err)
		t2, err := bench.Table2(sc)
		emit(t2, err)
		t3, t4, err := bench.Table3And4(dir, sc)
		emit(t3, err)
		emit(t4, nil)
		t5, err := bench.Table5(dir, sc)
		emit(t5, err)
		t6, err := bench.Table6(dir, sc)
		emit(t6, err)
		t7, err := bench.Table7(dir, sc)
		emit(t7, err)
		tm, err := bench.Materialization(dir, sc)
		emit(tm, err)
		tw, err := bench.WorkloadAware(dir, sc)
		emit(tw, err)
		ta, err := bench.Ablations(dir, sc)
		emit(ta, err)
		hotpath()
		serverExp()
		adaptive()
		ingest()
		tracing()
		manifest()
		history()
		return
	}
	run(*experiment)
}

// writeJSON atomically replaces path with the indented JSON encoding of
// v. The temp file is hidden (dot-prefixed) and uniquely named so an
// interrupted or concurrent bench run can neither leave a torn file
// matching the BENCH_*.json artifact glob nor corrupt another run's
// write, and it is fsynced before the rename so the committed file is
// never empty after a crash.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*") //avlint:allow-os bench artifact, outside durability boundary
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(append(raw, '\n'))
	if werr == nil {
		werr = f.Sync() //avlint:allow-os bench artifact, outside durability boundary
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path) //avlint:allow-os bench artifact, outside durability boundary
	}
	if werr != nil {
		if rerr := os.Remove(tmp); rerr != nil && !os.IsNotExist(rerr) { //avlint:allow-os bench artifact, outside durability boundary
			// the write error still wins, but a lingering temp file would
			// survive as hidden debris next to the artifact — say so
			fmt.Fprintf(os.Stderr, "avbench: leaking temp file %s: %v\n", tmp, rerr)
		}
		return werr
	}
	return nil
}

func emit(t bench.Table, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Println(t.String())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "avbench: %v\n", err)
	os.Exit(1)
}
