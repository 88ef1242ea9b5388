package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// The ingest experiment measures the durable write path: concurrent
// writers inserting small dense versions into one array of a
// crash-safe (Options.Durability) store. Each insert syncs its own
// payload and then joins the store-wide commit queue, whose latch
// holder publishes everything queued with one manifest append. One
// shared array concentrates the commit contention the queue exists
// for; throughput at 2/4/8 writers over throughput at 1 writer is the
// scaling the shared commit buys.

// IngestResult is one (mode, writers) configuration's measurement,
// serialized into BENCH_ingest.json by cmd/avbench.
type IngestResult struct {
	Mode          string  `json:"mode"` // always "grouped"
	Writers       int     `json:"writers"`
	Inserts       int     `json:"inserts"`
	NsPerInsert   int64   `json:"ns_per_insert"`
	InsertsPerSec float64 `json:"inserts_per_sec"`
	// GroupCommits is the number of shared commit points the run paid;
	// CoalesceFactor is inserts/commits (1.0 = no sharing).
	GroupCommits   int64   `json:"group_commits"`
	CoalesceFactor float64 `json:"coalesce_factor"`
}

// IngestSummary is the whole experiment: every configuration plus the
// headline speedup at the highest fan-out, which CI gates on.
type IngestSummary struct {
	Results []IngestResult `json:"results"`
	// Speedup[w] is inserts/sec at w writers over inserts/sec at one
	// writer, keyed by the decimal writer count.
	Speedup map[string]float64 `json:"speedup"`
	// SpeedupAt8 repeats Speedup["8"] for the jq gate.
	SpeedupAt8 float64 `json:"speedup_at_8"`
}

// ingestFanouts are the concurrent writer counts measured.
var ingestFanouts = []int{1, 2, 4, 8}

// Ingest runs the durable-ingest experiment and returns the rendered
// table plus the machine-readable summary.
func Ingest(workDir string, sc Scale, parallelism int) (Table, IngestSummary, error) {
	const side = 32 // 4 KB int32 payloads: commit cost dominates encode
	const trials = 3
	total := 160
	if sc.NOAASide < 128 {
		total = 96 // quick scale
	}

	summary := IngestSummary{Speedup: map[string]float64{}}
	var oneWriter float64
	for run, writers := range ingestFanouts {
		// median of N trials per cell: a shared box's transient fs
		// stalls (journal flushes, neighbors) otherwise dominate a
		// single short durable run in either direction
		var cell []IngestResult
		for trial := 0; trial < trials; trial++ {
			dir := filepath.Join(workDir, fmt.Sprintf("ingest-%d-%d", run, trial))
			res, err := runIngestConfig(dir, writers, total, side, parallelism)
			if err != nil {
				return Table{}, IngestSummary{}, err
			}
			cell = append(cell, res)
		}
		sort.Slice(cell, func(a, b int) bool { return cell[a].InsertsPerSec < cell[b].InsertsPerSec })
		med := cell[len(cell)/2]
		summary.Results = append(summary.Results, med)
		if writers == 1 {
			oneWriter = med.InsertsPerSec
		} else if oneWriter > 0 {
			summary.Speedup[fmt.Sprintf("%d", writers)] = med.InsertsPerSec / oneWriter
		}
	}
	summary.SpeedupAt8 = summary.Speedup["8"]

	t := Table{
		Title:   "Durable ingest — store-wide group commit vs writer count",
		Columns: []string{"Mode", "Writers", "Inserts", "ns/insert", "inserts/s", "commits", "coalesce"},
	}
	for _, r := range summary.Results {
		t.Rows = append(t.Rows, []string{
			r.Mode,
			fmt.Sprintf("%d", r.Writers),
			fmt.Sprintf("%d", r.Inserts),
			fmt.Sprintf("%d", r.NsPerInsert),
			fmt.Sprintf("%.0f", r.InsertsPerSec),
			fmt.Sprintf("%d", r.GroupCommits),
			fmt.Sprintf("%.1fx", r.CoalesceFactor),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d durable inserts of %dx%d int32 versions into one shared array per run; every run read back byte-identical and verified",
			total, side, side),
		fmt.Sprintf("8 writers: %.1fx the one-writer rate", summary.SpeedupAt8))
	return t, summary, nil
}

// runIngestConfig measures one writer count on a fresh durable store
// and fails if any committed version does not read back
// byte-identical.
func runIngestConfig(dir string, writers, total int, side int64, parallelism int) (IngestResult, error) {
	const mode = "grouped"
	opts := core.DefaultOptions()
	opts.Durability = true
	opts.Parallelism = parallelism
	// bulk-ingest shape: materialize every version instead of reading
	// the predecessor back for delta analysis on each insert — the
	// experiment measures the durable commit path, not chain decoding
	opts.AutoDelta = false
	store, err := core.Open(dir, opts)
	if err != nil {
		return IngestResult{}, err
	}
	defer store.Close()
	const name = "Ingest"
	sch := array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
		Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
	}
	if err := store.CreateArray(sch); err != nil {
		return IngestResult{}, err
	}
	content := func(seed int) *array.Dense {
		d := array.MustDense(array.Int32, []int64{side, side})
		for i := int64(0); i < d.NumCells(); i++ {
			d.SetBits(i, int64(seed)*2654435761+i*31)
		}
		return d
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		written  = map[int]int{} // version id -> seed
		firstErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				seed := int(next.Add(1)) - 1
				if seed >= total {
					return
				}
				id, err := store.Insert(name, core.DensePayload(content(seed)))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
				mu.Lock()
				written[id] = seed
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return IngestResult{}, firstErr
	}
	// correctness: every acknowledged insert reads back byte-identical
	for id, seed := range written {
		pl, err := store.Select(name, id)
		if err != nil {
			return IngestResult{}, fmt.Errorf("ingest %s writers=%d: version %d unreadable: %w", mode, writers, id, err)
		}
		if !pl.Dense.Equal(content(seed)) {
			return IngestResult{}, fmt.Errorf("ingest %s writers=%d: version %d not byte-identical", mode, writers, id)
		}
	}
	rep, err := store.Verify(name)
	if err != nil {
		return IngestResult{}, err
	}
	if !rep.Ok() {
		return IngestResult{}, fmt.Errorf("ingest %s writers=%d: verify failed: %v", mode, writers, rep.Problems)
	}
	st := store.Stats()
	res := IngestResult{
		Mode:          mode,
		Writers:       writers,
		Inserts:       total,
		NsPerInsert:   elapsed.Nanoseconds() / int64(total),
		InsertsPerSec: float64(total) / elapsed.Seconds(),
		GroupCommits:  st.GroupCommits,
	}
	if st.GroupCommits > 0 {
		res.CoalesceFactor = float64(st.GroupCommitVersions) / float64(st.GroupCommits)
	}
	return res, nil
}
