package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"arrayvers/internal/core"
)

// runIngest: two instruments append to history. A durable store in
// avstored's configuration (paper defaults with AutoDelta, Durability
// on, DefaultCacheBytes) takes two closed-loop writers, each appending a
// drifting int32 series to its own array; a few dozen small side arrays
// make manifest snapshots and rotations carry many docs. Each history
// ends by restarting the store and reading every version back. The run
// repeats this on z.ingestRounds fresh stores and pools the samples, so
// each metric's samples come from more than one stretch of the run.
func runIngest(e *env) (*report, error) {
	z := e.z
	rep := newReport()
	names := []string{"inst0", "inst1"}
	ser := []*series{
		newSeries(e.cfg.seed, 1, z.ingestSide, z.ingestSide),
		newSeries(e.cfg.seed, 2, z.ingestSide, z.ingestSide),
	}
	side := newSeries(e.cfg.seed, 3, z.sideSide, z.sideSide)
	opts := core.DefaultOptions()
	opts.Durability = true
	opts.CacheBytes = core.DefaultCacheBytes
	opts.ChunkBytes = z.ingestChunk
	H := z.ingestVersions

	var (
		setups, reopens, selLat, diskRatio []float64
		lat                                [][]float64
		ins, sel                           = &window{}, &window{}
		overhead                           = &split{}
		probe                              = &manifestProbe{}
	)
	for round := range z.ingestRounds {
		var (
			store     *core.Store
			dir       string
			sideAcked map[string][]int
		)
		setupS, err := e.setup(z.ingestSetups, func(d string) (func() error, error) {
			s, err := e.openStore(d, opts)
			if err != nil {
				return nil, err
			}
			store, dir, sideAcked = s, d, map[string][]int{}
			for _, n := range names {
				if err := s.CreateArray(schema2D(n, z.ingestSide, z.ingestSide)); err != nil {
					return nil, err
				}
			}
			for i := range z.sideArrays {
				n := fmt.Sprintf("side%02d", i)
				if err := s.CreateArray(schema2D(n, z.sideSide, z.sideSide)); err != nil {
					return nil, err
				}
				for k := range z.sideVersions {
					id, err := s.Insert(n, core.DensePayload(side.version(i*z.sideVersions+k)))
					if err != nil {
						return nil, err
					}
					sideAcked[n] = append(sideAcked[n], id)
				}
			}
			return func() error { return e.closeStore(s) }, nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupS)

		rl := [][]float64{nanSlice(H), nanSlice(H)}
		ids := [][]int{make([]int, H), make([]int, H)}
		probe.start(dir)
		before := readCounters(store)
		var wg sync.WaitGroup
		for w := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prev := 0
				for k := range H {
					p := core.DensePayload(ser[w].version(k))
					rec := e.opRec(k)
					req := fmt.Sprintf("ingest-%d-%d-%d", round, w, k)
					op := rec.open("op", "insert", req, 0, w+1)
					cs := rec.open("core", "Insert", req, op.id(), w+1)
					ctx, tr := traceCtx(rec, req, "insert")
					t0 := time.Now()
					id, err := store.InsertCtx(ctx, names[w], p)
					dt := time.Since(t0)
					if cs != nil {
						cs.Covered = stageTime(tr.Finish())
					}
					rec.close(cs)
					rec.close(op)
					if e.rec != nil {
						probe.sample()
					}
					if !e.led.op(err, "insert %s", names[w]) {
						continue
					}
					e.led.expectID(names[w], prev, id)
					prev = id
					ids[w][k] = id
					rl[w][k] = ms(dt)
					overhead.add(rec != nil, ms(dt))
				}
			}()
		}
		wg.Wait()
		ins.add(before, readCounters(store))
		inserted := len(acked(ids[0])) + len(acked(ids[1]))
		ins.ops += inserted
		ins.userBytes += int64(inserted) * ser[0].planeBytes()
		sideBytes := int64(z.sideArrays*z.sideVersions) * side.planeBytes()
		diskRatio = append(diskRatio, div(float64(store.DiskBytes()), float64(int64(inserted)*ser[0].planeBytes()+sideBytes)))
		lat = append(lat, rl...)

		// Restart and read back, z.ingestCycles times: each cycle closes
		// the store, reopens it (reopen_s) and reads both histories back
		// from the cold store in ascending windows of consecutive
		// versions, checking every version's content.
		for cycle := range z.ingestCycles {
			s2, opens, err := e.restart(store, dir, opts)
			if err != nil {
				return nil, err
			}
			store = s2
			reopens = append(reopens, opens...)
			if cycle == 0 {
				for w, name := range names {
					e.checkVersions(store, name, acked(ids[w]))
				}
				for name, a := range sideAcked {
					e.checkVersions(store, name, a)
				}
			}
			b := readCounters(store)
			for k := 0; k+z.ingestWindow <= H; k += z.ingestWindow {
				for w, name := range names {
					if slices.Contains(ids[w][k:k+z.ingestWindow], 0) {
						continue // a failed insert left a gap
					}
					q := historyWindow(w, ser[w], name, ids[w], k, z.ingestWindow)
					n := len(selLat)
					if v, ok := e.embeddedSelect(e.opRec(n), store, q, fmt.Sprintf("readback-%d-%d", round, n), 3); ok {
						selLat = append(selLat, v)
						sel.ops++
					}
				}
			}
			sel.add(b, readCounters(store))
		}
		if err := e.closeStore(store); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	e.led.verify(ser)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["reopen_s"] = iqm(reopens)
	rep.e2e["disk_bytes_per_user_byte"] = mean(diskRatio)
	insertMetrics(rep, lat)
	selectMetrics(rep, selLat, len(selLat))

	rep.note("%d rounds, each: 2 writers x %d versions of %dx%d int32 (%d chunks of %d B), durable, AutoDelta, cache %d MiB",
		z.ingestRounds, H, z.ingestSide, z.ingestSide, z.ingestSide*z.ingestSide*4/z.ingestChunk, z.ingestChunk, core.DefaultCacheBytes>>20)
	rep.note("set-up: %d side arrays x %d versions of %dx%d; then %d cycles of reopen + read-back of every version in %d-version windows",
		z.sideArrays, z.sideVersions, z.sideSide, z.sideSide, z.ingestCycles, z.ingestWindow)
	if e.rec != nil {
		e.layerMetrics(rep, layerInputs{
			ins:         ins,
			sel:         sel,
			main:        ins,
			overhead:    overhead,
			recordBytes: probe.mean(),
		})
	}
	return rep, nil
}

// acked is the acknowledged IDs of a history (0 marks a failed insert).
func acked(ids []int) []int {
	var out []int
	for _, id := range ids {
		if id != 0 {
			out = append(out, id)
		}
	}
	return out
}

// manifestProbe measures how much the live manifest log grows per
// commit, by stat between inserts, skipping intervals with a rotation.
// It accumulates over the stores it is started on.
type manifestProbe struct {
	dir     string
	mu      sync.Mutex
	gen     int
	size    int64
	growth  int64
	samples int
}

// start points the probe at a new store directory.
func (m *manifestProbe) start(dir string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dir, m.gen, m.size = dir, 0, 0
}

func (m *manifestProbe) sample() {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := os.ReadFile(filepath.Join(m.dir, "CURRENT"))
	if err != nil {
		return
	}
	var cur struct {
		Gen int `json:"gen"`
	}
	if json.Unmarshal(b, &cur) != nil {
		return
	}
	fi, err := os.Stat(filepath.Join(m.dir, fmt.Sprintf("MANIFEST-%06d.log", cur.Gen)))
	if err != nil {
		return
	}
	if cur.Gen == m.gen && m.size > 0 && fi.Size() >= m.size {
		m.growth += fi.Size() - m.size
		m.samples++
	}
	m.gen, m.size = cur.Gen, fi.Size()
}

func (m *manifestProbe) mean() float64 { return div(float64(m.growth), float64(m.samples)) }
