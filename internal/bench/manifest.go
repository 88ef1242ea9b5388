package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// The manifest experiment measures the store-wide commit log on the
// workload it was built for: batches that span several arrays. The
// "manifest" mode lands each K-array batch with Store.InsertMulti —
// one record, one append, one fsync, atomic across members — while the
// "per-array" baseline lands the same batch as K sequential InsertBatch
// calls on the same kind of store: K records, each its own append and
// log fsync, with no atomicity across the members.

// ManifestResult is one mode's measurement, serialized into
// BENCH_manifest.json by cmd/avbench.
type ManifestResult struct {
	Mode          string  `json:"mode"` // "manifest" or "per-array"
	Arrays        int     `json:"arrays"`
	Batches       int     `json:"batches"`
	NsPerBatch    int64   `json:"ns_per_batch"`
	BatchesPerSec float64 `json:"batches_per_sec"`
	// MetaFsyncs counts the manifest log fsyncs the run paid.
	MetaFsyncs int64 `json:"meta_fsyncs"`
	// FsyncsPerBatch is MetaFsyncs/Batches: 1.0 for the manifest, K for
	// the per-array baseline.
	FsyncsPerBatch float64 `json:"fsyncs_per_batch"`
}

// ManifestSummary is the whole experiment plus the two headline
// numbers CI gates on.
type ManifestSummary struct {
	Results []ManifestResult `json:"results"`
	// ManifestFsyncsPerBatch repeats the manifest mode's FsyncsPerBatch
	// for the jq gate: one commit fsync per cross-array batch.
	ManifestFsyncsPerBatch float64 `json:"manifest_fsyncs_per_batch"`
	// Speedup is manifest batches/sec over the per-array baseline.
	Speedup float64 `json:"speedup"`
}

// Manifest runs the cross-array commit experiment and returns the
// rendered table plus the machine-readable summary.
func Manifest(workDir string, sc Scale, parallelism int) (Table, ManifestSummary, error) {
	const side = 32 // 4 KB int32 payloads: commit cost dominates encode
	const arrays = 4
	const trials = 3
	batches := 40
	if sc.NOAASide < 128 {
		batches = 24 // quick scale
	}

	summary := ManifestSummary{}
	run := 0
	for _, mode := range []string{"per-array", "manifest"} {
		var cell []ManifestResult
		for trial := 0; trial < trials; trial++ {
			run++
			dir := filepath.Join(workDir, fmt.Sprintf("manifest-%d", run))
			res, err := runManifestConfig(dir, mode, arrays, batches, side, parallelism)
			if err != nil {
				return Table{}, ManifestSummary{}, err
			}
			cell = append(cell, res)
		}
		sort.Slice(cell, func(a, b int) bool { return cell[a].BatchesPerSec < cell[b].BatchesPerSec })
		med := cell[len(cell)/2]
		summary.Results = append(summary.Results, med)
		if mode == "manifest" {
			summary.ManifestFsyncsPerBatch = med.FsyncsPerBatch
			if base := summary.Results[0].BatchesPerSec; base > 0 {
				summary.Speedup = med.BatchesPerSec / base
			}
		}
	}

	t := Table{
		Title:   "Cross-array batch ingest — one InsertMulti record vs K InsertBatch records",
		Columns: []string{"Mode", "Arrays", "Batches", "ns/batch", "batches/s", "meta fsyncs", "fsyncs/batch"},
	}
	for _, r := range summary.Results {
		t.Rows = append(t.Rows, []string{
			r.Mode,
			fmt.Sprintf("%d", r.Arrays),
			fmt.Sprintf("%d", r.Batches),
			fmt.Sprintf("%d", r.NsPerBatch),
			fmt.Sprintf("%.0f", r.BatchesPerSec),
			fmt.Sprintf("%d", r.MetaFsyncs),
			fmt.Sprintf("%.2f", r.FsyncsPerBatch),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d durable batches, each spanning %d arrays with one %dx%d int32 version per member; every run read back byte-identical and verified",
			batches, arrays, side, side),
		fmt.Sprintf("manifest commit: %.2f metadata fsyncs per cross-array batch (per-array baseline: %.2f), %.1fx throughput",
			summary.ManifestFsyncsPerBatch, summary.Results[0].FsyncsPerBatch, summary.Speedup))
	return t, summary, nil
}

// runManifestConfig measures one mode on a fresh durable store and
// fails if any committed version does not read back byte-identical.
func runManifestConfig(dir, mode string, arrays, batches int, side int64, parallelism int) (ManifestResult, error) {
	opts := core.DefaultOptions()
	opts.Durability = true
	opts.Parallelism = parallelism
	// bulk-ingest shape, as in the ingest experiment: the run measures
	// the commit protocol, not chain decoding
	opts.AutoDelta = false
	store, err := core.Open(dir, opts)
	if err != nil {
		return ManifestResult{}, err
	}
	defer store.Close()
	names := make([]string, arrays)
	for i := range names {
		names[i] = fmt.Sprintf("M%d", i)
		sch := array.Schema{
			Name:  names[i],
			Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
			Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
		}
		if err := store.CreateArray(sch); err != nil {
			return ManifestResult{}, err
		}
	}
	content := func(seed int) *array.Dense {
		d := array.MustDense(array.Int32, []int64{side, side})
		for i := int64(0); i < d.NumCells(); i++ {
			d.SetBits(i, int64(seed)*2654435761+i*31)
		}
		return d
	}

	// the creation commits above are not part of the measured batch
	// loop; snapshot the counters to isolate it
	before := store.Stats()
	written := map[string]map[int]int{} // array -> version id -> seed
	for _, n := range names {
		written[n] = map[int]int{}
	}
	start := time.Now()
	for b := 0; b < batches; b++ {
		if mode == "manifest" {
			multi := make([]core.MultiInsert, arrays)
			for i, n := range names {
				multi[i] = core.MultiInsert{Array: n, Payloads: []core.Payload{core.DensePayload(content(b*arrays + i))}}
			}
			out, err := store.InsertMulti(multi)
			if err != nil {
				return ManifestResult{}, err
			}
			for i, n := range names {
				written[n][out[n][0]] = b*arrays + i
			}
		} else {
			for i, n := range names {
				ids, err := store.InsertBatch(n, []core.Payload{core.DensePayload(content(b*arrays + i))})
				if err != nil {
					return ManifestResult{}, err
				}
				written[n][ids[0]] = b*arrays + i
			}
		}
	}
	elapsed := time.Since(start)

	// correctness: every acknowledged version reads back byte-identical
	for n, vers := range written {
		for id, seed := range vers {
			pl, err := store.Select(n, id)
			if err != nil {
				return ManifestResult{}, fmt.Errorf("manifest %s: %s@%d unreadable: %w", mode, n, id, err)
			}
			if !pl.Dense.Equal(content(seed)) {
				return ManifestResult{}, fmt.Errorf("manifest %s: %s@%d not byte-identical", mode, n, id)
			}
		}
		rep, err := store.Verify(n)
		if err != nil {
			return ManifestResult{}, err
		}
		if !rep.Ok() {
			return ManifestResult{}, fmt.Errorf("manifest %s: verify %s failed: %v", mode, n, rep.Problems)
		}
	}
	metaFsyncs := store.Stats().ManifestFsyncs - before.ManifestFsyncs
	res := ManifestResult{
		Mode:          mode,
		Arrays:        arrays,
		Batches:       batches,
		NsPerBatch:    elapsed.Nanoseconds() / int64(batches),
		BatchesPerSec: float64(batches) / elapsed.Seconds(),
		MetaFsyncs:    metaFsyncs,
	}
	res.FsyncsPerBatch = float64(metaFsyncs) / float64(batches)
	return res, nil
}
