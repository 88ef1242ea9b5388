package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
	"arrayvers/internal/trace"
)

// The history experiment measures how an insert's cost moves with the
// length of the version history it lands on. One AutoDelta array grows
// a single delta chain (each version a small perturbation of the last);
// after the history reaches each checkpoint length, a window of inserts
// is measured: wall time, the stage_encode share (base resolution plus
// encoding and the unsynced appends), the chunks read from disk, and
// the bytes each commit adds to the manifest log. The chunk-read count
// is deterministic and is what CI gates on: it must not grow with
// history. Latency and record bytes are reported only — each manifest
// record still carries the array's whole metadata document, so record
// bytes grow with history until records carry operations instead.

// HistoryPoint is the measurement at one history length.
type HistoryPoint struct {
	// Versions is the history length the measured inserts landed on.
	Versions int `json:"versions"`
	Inserts  int `json:"inserts"`
	// InsertP50Ns and StageEncodeP50Ns are per-insert medians.
	InsertP50Ns      int64 `json:"insert_p50_ns"`
	StageEncodeP50Ns int64 `json:"stage_encode_p50_ns"`
	// ChunksReadPerInsert is the mean number of chunk reads from disk
	// an insert paid (Stats().ChunksRead).
	ChunksReadPerInsert float64 `json:"chunks_read_per_insert"`
	// ManifestRecordBytes is the mean growth of the live manifest log
	// per commit, over commits that did not rotate it.
	ManifestRecordBytes float64 `json:"manifest_record_bytes"`
}

// HistorySummary is the whole experiment, serialized into
// BENCH_history.json by cmd/avbench.
type HistorySummary struct {
	ChunksPerVersion int            `json:"chunks_per_version"`
	CacheBytes       int64          `json:"cache_bytes"`
	Points           []HistoryPoint `json:"points"`
	// InsertP50Ratio is the longest history's insert p50 over the
	// shortest's (reported, not gated).
	InsertP50Ratio float64 `json:"insert_p50_ratio"`
}

// historyCheckpoints are the history lengths measured.
var historyCheckpoints = []int{10, 100, 1000}

// History runs the history-length experiment and returns the rendered
// table plus the machine-readable summary.
func History(workDir string, sc Scale, parallelism int, cacheBytes int64) (Table, HistorySummary, error) {
	side := int64(32) // quick: 4 chunks of 1 KiB per version
	if sc.NOAASide >= 128 {
		side = 64 // default: 16 chunks
	}
	const window = 20
	sum, err := runHistory(filepath.Join(workDir, "history"), side, 1<<10, historyCheckpoints, window, parallelism, cacheBytes)
	if err != nil {
		return Table{}, HistorySummary{}, err
	}
	t := Table{
		Title:   "Insert cost vs version-history length — one AutoDelta chain",
		Columns: []string{"History", "Inserts", "insert p50", "stage_encode p50", "chunks read/insert", "manifest B/record"},
	}
	for _, p := range sum.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Versions),
			fmt.Sprintf("%d", p.Inserts),
			fmtDur(time.Duration(p.InsertP50Ns)),
			fmtDur(time.Duration(p.StageEncodeP50Ns)),
			fmt.Sprintf("%.1f", p.ChunksReadPerInsert),
			fmt.Sprintf("%.0f", p.ManifestRecordBytes),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%dx%d int32 versions (%d chunks), non-durable, cache %s; every measured version read back byte-identical and verified",
			side, side, sum.ChunksPerVersion, fmtBytes(cacheBytes)),
		fmt.Sprintf("insert p50 at %d versions is %.2fx the p50 at %d; manifest records still carry the whole document",
			sum.Points[len(sum.Points)-1].Versions, sum.InsertP50Ratio, sum.Points[0].Versions))
	return t, sum, nil
}

// runHistory grows one chain to each checkpoint in turn and measures a
// window of inserts there.
func runHistory(dir string, side, chunkBytes int64, checkpoints []int, window, parallelism int, cacheBytes int64) (HistorySummary, error) {
	opts := core.DefaultOptions()
	opts.AutoDelta = true
	opts.ChunkBytes = chunkBytes
	opts.CacheBytes = cacheBytes
	opts.Parallelism = parallelism
	store, err := core.Open(dir, opts)
	if err != nil {
		return HistorySummary{}, err
	}
	defer store.Close()
	const name = "H"
	sch := array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
		Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
	}
	if err := store.CreateArray(sch); err != nil {
		return HistorySummary{}, err
	}

	// a drifting series: each version perturbs ~5% of the last one's
	// cells, so AutoDelta chains every version onto its predecessor
	rng := rand.New(rand.NewSource(7))
	cur := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < cur.NumCells(); i++ {
		cur.SetBits(i, int64(rng.Intn(1000)))
	}
	next := func() *array.Dense {
		for i := int64(0); i < cur.NumCells(); i++ {
			if rng.Intn(20) == 0 {
				cur.SetBits(i, cur.Bits(i)+int64(rng.Intn(5)-2))
			}
		}
		return cur.Clone()
	}
	insert := func(ctx context.Context) (int, *array.Dense, error) {
		d := next()
		id, err := store.InsertCtx(ctx, name, core.DensePayload(d))
		return id, d, err
	}

	log := manifestLog{dir: dir}
	sum := HistorySummary{ChunksPerVersion: int(side * side * 4 / chunkBytes), CacheBytes: cacheBytes}
	written := map[int]*array.Dense{}
	history := 0
	for _, cp := range checkpoints {
		for ; history < cp; history++ {
			if _, _, err := insert(context.Background()); err != nil {
				return HistorySummary{}, err
			}
		}
		var lat, enc []int64
		var reads, recordBytes int64
		records := 0
		log.sample()
		for k := 0; k < window; k++ {
			before := store.Stats().ChunksRead
			tr := trace.New("history")
			t0 := time.Now()
			id, d, err := insert(trace.NewContext(context.Background(), tr))
			lat = append(lat, time.Since(t0).Nanoseconds())
			if err != nil {
				return HistorySummary{}, err
			}
			reads += store.Stats().ChunksRead - before
			for _, st := range tr.Finish().Stages {
				if st.Stage == core.StageStageEncode {
					enc = append(enc, st.Nanos)
				}
			}
			if grew, ok := log.sample(); ok {
				recordBytes += grew
				records++
			}
			written[id] = d
			history++
		}
		p := HistoryPoint{
			Versions:            cp,
			Inserts:             window,
			InsertP50Ns:         p50(lat),
			StageEncodeP50Ns:    p50(enc),
			ChunksReadPerInsert: float64(reads) / float64(window),
		}
		if records > 0 {
			p.ManifestRecordBytes = float64(recordBytes) / float64(records)
		}
		sum.Points = append(sum.Points, p)
	}
	if first := sum.Points[0].InsertP50Ns; first > 0 {
		sum.InsertP50Ratio = float64(sum.Points[len(sum.Points)-1].InsertP50Ns) / float64(first)
	}

	// correctness: every measured version reads back byte-identical
	for id, want := range written {
		pl, err := store.Select(name, id)
		if err != nil {
			return HistorySummary{}, fmt.Errorf("history: version %d unreadable: %w", id, err)
		}
		if !pl.Dense.Equal(want) {
			return HistorySummary{}, fmt.Errorf("history: version %d not byte-identical", id)
		}
	}
	rep, err := store.Verify(name)
	if err != nil {
		return HistorySummary{}, err
	}
	if !rep.Ok() {
		return HistorySummary{}, fmt.Errorf("history: verify failed: %v", rep.Problems)
	}
	return sum, nil
}

// p50 returns the median sample (upper median), sorting ns in place.
func p50(ns []int64) int64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	return ns[len(ns)/2]
}

// manifestLog measures the live manifest log's growth between samples
// by stat, reporting no growth across a rotation (the generation the
// CURRENT file names changed).
type manifestLog struct {
	dir    string
	primed bool
	gen    int
	size   int64
}

// sample returns the log's growth since the previous sample, ok=false
// on the first sample, after a rotation, or when the log is unreadable.
func (m *manifestLog) sample() (grew int64, ok bool) {
	raw, err := os.ReadFile(filepath.Join(m.dir, "CURRENT"))
	if err != nil {
		return 0, false
	}
	var cur struct {
		Gen int `json:"gen"`
	}
	if json.Unmarshal(raw, &cur) != nil {
		return 0, false
	}
	fi, err := os.Stat(filepath.Join(m.dir, fmt.Sprintf("MANIFEST-%06d.log", cur.Gen)))
	if err != nil {
		return 0, false
	}
	ok = m.primed && cur.Gen == m.gen && fi.Size() >= m.size
	if ok {
		grew = fi.Size() - m.size
	}
	m.primed, m.gen, m.size = true, cur.Gen, fi.Size()
	return grew, ok
}
