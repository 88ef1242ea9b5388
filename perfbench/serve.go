package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"arrayvers/internal/core"
)

// history is the growing list of acknowledged version IDs of one array,
// by generator ordinal, shared by the writer and the reader.
type history struct {
	mu  sync.Mutex
	ids []int
}

func (h *history) add(id int) {
	h.mu.Lock()
	h.ids = append(h.ids, id)
	h.mu.Unlock()
}

// snapshot returns the IDs acknowledged so far. Elements are never
// rewritten, so the returned slice stays valid while the writer appends.
func (h *history) snapshot() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ids
}

// runServe: a live remote dashboard next to ingest. avstored's handler
// serves, on loopback, a durable store preloaded with a history of one
// array whose decoded working set fits the cache, warmed before timing.
// One closed-loop reader client issues a recent-favoured select mix
// while one writer client appends new versions durably in an open loop
// at a fixed rate.
func runServe(e *env) (*report, error) {
	z := e.z
	rep := newReport()
	const name = "dash"
	ser := []*series{newSeries(e.cfg.seed, 4, z.serveSide, z.serveSide)}
	s0 := ser[0]
	// the preload materializes every version; the served store runs
	// avstored's configuration, so the writer's versions are AutoDelta'd
	preOpts := core.DefaultOptions()
	preOpts.AutoDelta = false
	preOpts.ChunkBytes = z.serveChunk
	opts := core.DefaultOptions()
	opts.Durability = true
	opts.CacheBytes = z.serveCache
	opts.ChunkBytes = z.serveChunk

	var (
		store *core.Store
		svc   *service
		dir   string
		pre   []int
	)
	setupS, err := e.setup(z.serveSetups, func(d string) (func() error, error) {
		s, err := e.openStore(d, preOpts)
		if err != nil {
			return nil, err
		}
		if err := s.CreateArray(schema2D(name, z.serveSide, z.serveSide)); err != nil {
			return nil, err
		}
		sp := e.rec.open("setup", "Preload", "", 0, 0)
		var ids []int
		for k := range z.servePreload {
			id, err := s.Insert(name, core.DensePayload(s0.version(k)))
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		e.rec.close(sp)
		if err := e.closeStore(s); err != nil {
			return nil, err
		}
		if s, err = e.openStore(d, opts); err != nil {
			return nil, err
		}
		sp = e.rec.open("setup", "Warm", "", 0, 0)
		for _, id := range ids {
			if _, err := s.Select(name, id); err != nil {
				return nil, err
			}
		}
		e.rec.close(sp)
		sv, err := startService(e.rec, s)
		if err != nil {
			return nil, err
		}
		store, svc, dir, pre = s, sv, d, ids
		return func() error {
			err := sv.stop()
			if cerr := e.closeStore(s); err == nil {
				err = cerr
			}
			return err
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS

	reader, rt := newClient(svc.url, e.rec)
	writer, wt := newClient(svc.url, e.rec)
	head := &history{ids: append([]int(nil), pre...)}
	wire := &wireReplays{}
	overhead := &split{}
	var remoteCalls, replays atomic.Int64
	insLat := nanSlice(z.serveInserts)
	var late, selLat []float64
	before := readCounters(store)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: open loop at a fixed rate
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / z.serveRate)
		prev := pre[len(pre)-1]
		start := time.Now()
		for i := range z.serveInserts {
			p := core.DensePayload(s0.version(z.servePreload + i))
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			late = append(late, ms(time.Since(due)))
			rec := e.opRec(i)
			req := fmt.Sprintf("serve-w-%d", i)
			c := writer
			if rec != nil {
				c = writer.WithTrace(req)
			}
			op := rec.open("op", "insert", req, 0, 2)
			cs := rec.open("client", "Insert", req, op.id(), 2)
			id, err := c.Insert(name, p)
			done := time.Now()
			rec.close(cs)
			rec.close(op)
			remoteCalls.Add(1)
			if !e.led.op(err, "insert %s", name) {
				continue
			}
			e.led.expectID(name, prev, id)
			prev = id
			head.add(id)
			insLat[i] = ms(done.Sub(due))
			if rec != nil {
				e.fetchStages(writer, req)
				e.replayPayload(p, wire, req, 2)
			}
		}
	}()
	go func() { // reader: closed loop, recent-favoured mix
		defer wg.Done()
		rng := rand.New(rand.NewSource(e.cfg.seed*31 + 7))
		for i := range z.serveSelects {
			ids := head.snapshot()
			n := len(ids)
			var q query
			switch r := rng.Float64(); {
			case r < 0.4:
				q = fullQuery(0, s0, name, ids, n-1)
			case r < 0.8:
				k := max(0, n-1-int(rng.ExpFloat64()*8))
				q = regionQuery(rng, 0, s0, name, ids, k, z.serveRegion)
			default:
				q = windowQuery(rng, 0, s0, name, ids, n-z.serveWindow, z.serveWindow, z.serveRegion)
			}
			rec := e.opRec(i)
			req := fmt.Sprintf("serve-r-%d", i)
			c := reader
			if rec != nil {
				c = reader.WithTrace(req)
			}
			op := rec.open("op", "select", req, 0, 1)
			cs := rec.open("client", q.kind, req, op.id(), 1)
			t0 := time.Now()
			d, err := runRemote(c, q)
			dt := time.Since(t0)
			rec.close(cs)
			rec.close(op)
			remoteCalls.Add(1)
			if !e.led.op(err, "%s %s@%v", q.kind, name, q.ids) {
				continue
			}
			e.led.expectDense(q.key(), d)
			selLat = append(selLat, us(dt))
			overhead.add(rec != nil, us(dt))
			if rec != nil {
				e.fetchStages(reader, req)
				e.replaySelect(store, q, d, wire, req, 1)
				replays.Add(1)
			}
			time.Sleep(z.serveThink)
		}
	}()
	wg.Wait()
	after := readCounters(store)
	acked := head.snapshot()
	written := len(acked) - len(pre)
	rep.e2e["disk_bytes_per_user_byte"] = div(float64(store.DiskBytes()), float64(int64(len(acked))*s0.planeBytes()))
	insertMetrics(rep, [][]float64{insLat})
	selectMetrics(rep, selLat, z.serveSelects/10)

	reader.Close()
	writer.Close()
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	var reopens []float64
	// Each restart is followed by reading the whole history back from
	// the cold store, which checks every version's content and spreads
	// the restarts over a few seconds.
	for r := range z.serveRestarts {
		s2, opens, err := e.restart(store, dir, opts)
		if err != nil {
			return nil, err
		}
		store = s2
		reopens = append(reopens, opens...)
		e.checkVersions(store, name, acked)
		for k := range acked {
			d, err := runEmbedded(context.Background(), store, fullQuery(0, s0, name, acked, k))
			if e.led.op(err, "read back %s@%d after restart %d", name, acked[k], r) {
				e.led.expectDense(planeKey(0, k, s0.full()), d)
			}
		}
	}
	rep.e2e["reopen_s"] = iqm(reopens)
	if err := e.closeStore(store); err != nil {
		return nil, err
	}
	e.led.verify(ser)

	rep.note("%dx%d int32 (%d chunks), %d preloaded versions (%d MiB decoded) in a %d MiB cache, warmed; durable, AutoDelta",
		z.serveSide, z.serveSide, z.serveSide*z.serveSide*4/z.serveChunk, z.servePreload, int64(z.servePreload)*s0.planeBytes()>>20, z.serveCache>>20)
	rep.note("reader: %d closed-loop selects with %v think time (40%% full latest, 40%% %dx%d region of recent versions, 20%% %d-version window); writer: %d durable inserts at %.0f/s, open loop",
		z.serveSelects, z.serveThink, z.serveRegion, z.serveRegion, z.serveWindow, z.serveInserts, z.serveRate)
	if e.rec != nil {
		var transports []*tracedTransport
		for _, t := range []*tracedTransport{rt, wt} {
			if t != nil {
				transports = append(transports, t)
			}
		}
		selOps := len(selLat) + int(replays.Load())
		ins := &window{ops: written, userBytes: int64(written) * s0.planeBytes()}
		sel := &window{ops: selOps}
		main := &window{ops: selOps + written}
		for _, w := range []*window{ins, sel, main} {
			w.add(before, after)
		}
		e.layerMetrics(rep, layerInputs{
			ins:          ins,
			sel:          sel,
			main:         main,
			transports:   transports,
			remoteCalls:  remoteCalls.Load(),
			wire:         wire,
			writerLateMs: mean(late),
			overhead:     overhead,
		})
	}
	return rep, nil
}
