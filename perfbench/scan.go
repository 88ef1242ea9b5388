package main

import (
	"fmt"
	"math/rand"
	"time"

	"arrayvers/internal/core"
)

// runScan: history analysis larger than the cache. The embedded
// library, with no service layer, ingests a history of one array and
// reorganizes it once with the head-biased §IV layout in BatchK-bounded
// batches (§IV-E); then one closed-loop reader issues uniformly random
// old-version full selects and multi-version windows with a
// cache budget under a quarter of the decoded working set, restarting
// the store a few times along the way.
func runScan(e *env) (*report, error) {
	z := e.z
	rep := newReport()
	const name = "hist"
	ser := []*series{newSeries(e.cfg.seed, 5, z.scanSide, z.scanSide)}
	s0 := ser[0]
	opts := core.DefaultOptions()
	opts.CacheBytes = z.scanCache
	opts.ChunkBytes = z.scanChunk
	H := z.scanVersions

	var (
		store       *core.Store
		dir         string
		ids         []int
		allLat      [][]float64 // insert latencies of every set-up
		ins         *window
		reorganizes []float64
	)
	setupS, err := e.setup(z.scanSetups, func(d string) (func() error, error) {
		s, err := e.openStore(d, opts)
		if err != nil {
			return nil, err
		}
		if err := s.CreateArray(schema2D(name, z.scanSide, z.scanSide)); err != nil {
			return nil, err
		}
		lat := make([]float64, H)
		var got []int
		before := readCounters(s)
		for k := range H {
			p := core.DensePayload(s0.version(k))
			t0 := time.Now()
			id, err := s.Insert(name, p)
			if err != nil {
				return nil, err
			}
			lat[k] = ms(time.Since(t0))
			got = append(got, id)
		}
		w := &window{ops: H, userBytes: int64(H) * s0.planeBytes()}
		w.add(before, readCounters(s))
		sp := e.rec.open("setup", "Reorganize", "", 0, 0)
		t0 := time.Now()
		err = s.Reorganize(name, core.ReorganizeOptions{Policy: core.PolicyHeadBiased, BatchK: z.scanBatchK})
		reorganizes = append(reorganizes, time.Since(t0).Seconds())
		e.rec.close(sp)
		if err != nil {
			return nil, err
		}
		store, dir, ids = s, d, got
		ins = w
		allLat = append(allLat, lat)
		return func() error { return e.closeStore(s) }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	for i := 1; i < len(ids); i++ {
		e.led.expectID(name, ids[i-1], ids[i])
	}
	insertMetrics(rep, allLat)

	// The selects run in z.scanSegments segments, each on a freshly restarted
	// store (reopen_s), so the restarts are spread over the run.
	rng := rand.New(rand.NewSource(e.cfg.seed*17 + 3))
	overhead := &split{}
	sel := &window{}
	var selLat, reopens []float64
	for seg := range z.scanSegments {
		s2, opens, err := e.restart(store, dir, opts)
		if err != nil {
			return nil, err
		}
		store = s2
		reopens = append(reopens, opens...)
		b := readCounters(store)
		for i := seg * z.scanSelects / z.scanSegments; i < (seg+1)*z.scanSelects/z.scanSegments; i++ {
			var q query
			if rng.Float64() < 0.9 {
				q = fullQuery(0, s0, name, ids, rng.Intn(H))
			} else {
				q = historyWindow(0, s0, name, ids, rng.Intn(H-z.scanWindow+1), z.scanWindow)
			}
			rec := e.opRec(i)
			if v, ok := e.embeddedSelect(rec, store, q, fmt.Sprintf("scan-%d", i), 1); ok {
				selLat = append(selLat, v)
				overhead.add(rec != nil, v)
				sel.ops++
			}
		}
		sel.add(b, readCounters(store))
	}
	rep.e2e["reopen_s"] = iqm(reopens)
	rep.e2e["disk_bytes_per_user_byte"] = div(float64(store.DiskBytes()), float64(int64(H)*s0.planeBytes()))
	selectMetrics(rep, selLat, z.scanSelects/z.scanSegments)
	e.checkVersions(store, name, ids)
	if err := e.closeStore(store); err != nil {
		return nil, err
	}
	e.led.verify(ser)

	rep.note("%d versions of %dx%d int32 (%d chunks), inserted with AutoDelta then Reorganize(head-biased, BatchK=%d)",
		H, z.scanSide, z.scanSide, z.scanSide*z.scanSide*4/z.scanChunk, z.scanBatchK)
	rep.note("cache %d KiB against a %d KiB decoded working set; %d closed-loop selects (90%% full random version, 10%% %d-version full-plane window) in %d restarted segments",
		z.scanCache>>10, int64(H)*s0.planeBytes()>>10, z.scanSelects, z.scanWindow, z.scanSegments)
	if e.rec != nil {
		e.layerMetrics(rep, layerInputs{
			ins:         ins,
			sel:         sel,
			main:        sel,
			reorganizeS: median(reorganizes),
			overhead:    overhead,
		})
	}
	return rep, nil
}
