// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the versioned array store, checks every reply
// against the generator, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as the last line of its
// output, one JSON object:
//
//	go build -o perfbench . && ./perfbench -workload serve -seed 1 -seconds 10 -trace 0
//
// Workloads: ingest (durable delta-chain appends), serve (remote
// dashboard over the HTTP service next to a live writer) and scan
// (embedded history analysis larger than the cache). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the store sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"insert_p50_ms", "ms", "lower"},
	{"insert_tail_ms", "ms", "lower"},
	{"insert_growth", "ratio", "lower"},
	{"reopen_s", "s", "lower"},
	{"select_p50_us", "us", "lower"},
	{"select_tail_us", "us", "lower"},
	{"select_per_s", "1/s", "higher"},
	{"disk_bytes_per_user_byte", "ratio", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers; every workload reports all
// of them in a traced run (0 where the workload does not reach the
// layer).
var perLayer = []metricDef{
	{"client.self_us", "us", "lower"},
	{"client.retries", "count", "lower"},
	{"http.transport_us", "us", "lower"},
	{"server.handler_self_us", "us", "lower"},
	{"server.rejected", "count", "lower"},
	{"wire.encode_us", "us", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"wire.reply_bytes", "bytes", "lower"},
	{"wire.payload_encode_us", "us", "lower"},
	{"core.select_us", "us", "lower"},
	{"core.snapshot_us", "us", "lower"},
	{"core.cache_us", "us", "lower"},
	{"core.read_us", "us", "lower"},
	{"core.decode_us", "us", "lower"},
	{"core.delta_us", "us", "lower"},
	{"core.materialize_us", "us", "lower"},
	{"core.stage_encode_ms", "ms", "lower"},
	{"core.queue_wait_ms", "ms", "lower"},
	{"core.data_fsync_ms", "ms", "lower"},
	{"core.meta_commit_ms", "ms", "lower"},
	{"core.install_ms", "ms", "lower"},
	{"core.manifest_records_per_append", "ratio", "higher"},
	{"core.manifest_fsyncs_per_insert", "ratio", "lower"},
	{"core.manifest_rotations", "count", "lower"},
	{"core.manifest_record_bytes", "bytes", "lower"},
	{"core.reorganize_s", "s", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_op", "ratio", "lower"},
	{"cache.rejected", "count", "lower"},
	{"bitpack.kernel_ops_per_select", "count", "lower"},
	{"fsio.bytes_read_per_select", "bytes", "lower"},
	{"fsio.chunks_read_per_select", "count", "lower"},
	{"fsio.mmap_read_ratio", "ratio", "higher"},
	{"fsio.bytes_written_per_user_byte", "ratio", "lower"},
	{"go.alloc_bytes_per_op", "bytes", "lower"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"gen.writer_late_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	workdir  string
	size     string // "full", or "tiny" for the smoke test
	corrupt  bool   // flip one expected hash: the smoke test's proof that wrong replies are caught
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a workload measured: end-to-end and per-layer values
// by metric name, plus lines describing its sizes.
type report struct {
	e2e   map[string]float64
	layer map[string]float64
	notes []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*report, error){
	"ingest": runIngest,
	"serve":  runServe,
	"scan":   runScan,
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: ingest, serve or scan")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 10, "run length the operation counts are sized for")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for temporary stores and trace dumps")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if workloads[cfg.workload] == nil {
		return cfg, fmt.Errorf("unknown -workload %q (want ingest, serve or scan)", cfg.workload)
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return cfg, fmt.Errorf("-seconds %d out of range 1..60", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.traced = trace == 1
	cfg.size = "full"
	return cfg, nil
}

// runTimeout bounds one run; a run that has not finished by then is
// broken, and exits without a result.
const runTimeout = 170 * time.Second

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload in its own temporary directory, removed
// afterwards, and prints the human-readable tables to out.
func run(cfg config, out io.Writer) (*result, error) {
	z, err := sizesFor(cfg.size, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.workdir, "stores"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.workdir, "stores"), cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	watchdog := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", cfg.workload, runTimeout)
		os.RemoveAll(dir)
		os.Exit(3)
	})
	defer watchdog.Stop()

	e := &env{cfg: cfg, z: z, dir: dir, led: &ledger{corrupt: cfg.corrupt}, out: out}
	if cfg.traced {
		e.rec = newRecorder()
	}
	rep, err := workloads[cfg.workload](e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	attempted, failed, errs := e.led.summary()
	if attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	for _, msg := range errs {
		fmt.Fprintln(out, "# FAILED:", msg)
	}
	rep.e2e["rss_peak_mb"] = peakRSSMiB()
	if e.rec != nil {
		if err := e.traceReport(rep); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(out, "# perfbench %s seed=%d seconds=%d size=%s traced=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.size, cfg.traced)
	for _, n := range rep.notes {
		fmt.Fprintln(out, "#   "+n)
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.traced {
		defs, vals = perLayer, rep.layer
	}
	fmt.Fprintf(out, "# %-34s %16s  %s\n", "ops_failed_ratio", fmt.Sprintf("%.6g", div(float64(failed), float64(attempted))), "ratio")
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(out, "# %-34s %16.6g  %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// traceReport derives the span-based per-layer metrics, prints the
// per-layer self-time table and writes the Chrome trace.
func (e *env) traceReport(rep *report) error {
	layers, e2e, unattributed := e.rec.selfTimes()
	rep.layer["trace.unattributed_pct"] = 100 * div(float64(unattributed), float64(e2e))
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(e.out, "# per-layer self time (%s, traced operations; setup, replay and wire spans are outside the op spans)\n", e.cfg.workload)
	fmt.Fprintf(e.out, "# %-10s %8s %12s %12s %10s\n", "layer", "spans", "total_ms", "self_ms", "self_%e2e")
	for _, l := range names {
		lt := layers[l]
		fmt.Fprintf(e.out, "# %-10s %8d %12.3f %12.3f %10.2f\n", l, lt.spans, ms(lt.total), ms(lt.self), 100*div(float64(lt.self), float64(e2e)))
	}
	fmt.Fprintf(e.out, "# trace.unattributed_pct=%.3f trace.overhead_pct=%.3f\n", rep.layer["trace.unattributed_pct"], rep.layer["trace.overhead_pct"])
	path := filepath.Join(e.cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", e.cfg.workload, e.cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := e.rec.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "# chrome trace: %s\n", path)
	return nil
}
