package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"time"

	"arrayvers/client"
	"arrayvers/internal/array"
	"arrayvers/internal/core"
	"arrayvers/internal/trace"
	"arrayvers/internal/wire"
)

// Select kinds, named after the store methods they call.
const (
	kindFull   = "Select"
	kindRegion = "SelectRegion"
	kindMulti  = "SelectMultiRegion"
)

// query is one select request: versions ids (generator ordinals k, k+1,
// ...) of series arr, stored as array name, cut to box.
type query struct {
	kind string
	arr  int
	name string
	k    int
	ids  []int
	box  array.Box
}

func (q query) key() expectKey {
	if q.kind == kindMulti {
		return multiKey(q.arr, q.k, len(q.ids), q.box)
	}
	return planeKey(q.arr, q.k, q.box)
}

// fullQuery, regionQuery and windowQuery build the three select kinds
// over a history whose ordinal k is stored as ids[k].
func fullQuery(arr int, s *series, name string, ids []int, k int) query {
	return query{kind: kindFull, arr: arr, name: name, k: k, ids: ids[k : k+1], box: s.full()}
}

func regionQuery(rng *rand.Rand, arr int, s *series, name string, ids []int, k int, side int64) query {
	return query{kind: kindRegion, arr: arr, name: name, k: k, ids: ids[k : k+1], box: s.randomBox(rng, side, side)}
}

func windowQuery(rng *rand.Rand, arr int, s *series, name string, ids []int, k, n int, side int64) query {
	return query{kind: kindMulti, arr: arr, name: name, k: k, ids: ids[k : k+n], box: s.randomBox(rng, side, side)}
}

// historyWindow selects n consecutive whole versions.
func historyWindow(arr int, s *series, name string, ids []int, k, n int) query {
	return query{kind: kindMulti, arr: arr, name: name, k: k, ids: ids[k : k+n], box: s.full()}
}

func planeDense(pl core.Plane, err error) (*array.Dense, error) {
	if err != nil {
		return nil, err
	}
	if pl.Dense == nil {
		return nil, errors.New("got a sparse reply for a dense array")
	}
	return pl.Dense, nil
}

func runEmbedded(ctx context.Context, s *core.Store, q query) (*array.Dense, error) {
	switch q.kind {
	case kindFull:
		return planeDense(s.SelectAttrCtx(ctx, q.name, q.ids[0], ""))
	case kindRegion:
		return planeDense(s.SelectRegionAttrCtx(ctx, q.name, q.ids[0], "", q.box))
	default:
		return s.SelectMultiRegionCtx(ctx, q.name, q.ids, q.box)
	}
}

func runRemote(c *client.Client, q query) (*array.Dense, error) {
	switch q.kind {
	case kindFull:
		return planeDense(c.Select(q.name, q.ids[0]))
	case kindRegion:
		return planeDense(c.SelectRegion(q.name, q.ids[0], q.box))
	default:
		return c.SelectMultiRegion(q.name, q.ids, q.box)
	}
}

// traceCtx attaches a store trace to a traced operation, so the store
// reports the stage time it spent on that call.
func traceCtx(rec *recorder, req, name string) (context.Context, *trace.Trace) {
	if rec == nil {
		return context.Background(), nil
	}
	tr := trace.Join(req, name)
	return trace.NewContext(context.Background(), tr), tr
}

// embeddedSelect times q against the embedded store as operation req
// and queues its reply for verification. It returns the latency in
// microseconds and whether the call succeeded.
func (e *env) embeddedSelect(rec *recorder, s *core.Store, q query, req string, lane int) (float64, bool) {
	op := rec.open("op", "select", req, 0, lane)
	cs := rec.open("core", q.kind, req, op.id(), lane)
	ctx, tr := traceCtx(rec, req, "select")
	t0 := time.Now()
	d, err := runEmbedded(ctx, s, q)
	dt := time.Since(t0)
	if cs != nil {
		cs.Covered = stageTime(tr.Finish())
	}
	rec.close(cs)
	rec.close(op)
	if !e.led.op(err, "%s %s@%v", q.kind, q.name, q.ids) {
		return 0, false
	}
	e.led.expectDense(q.key(), d)
	return us(dt), true
}

// fetchStages learns the store stage time the server spent on traced
// request req from the server's trace ring.
func (e *env) fetchStages(c *client.Client, req string) {
	sum, err := c.Trace(req)
	if e.led.op(err, "trace %s", req) {
		e.rec.cover(req, stageTime(sum))
	}
}

// replaySelect repeats a traced remote select in isolation: against the
// embedded store (core.select_us, the service-free baseline) and
// through the wire encoder and decoder alone.
func (e *env) replaySelect(s *core.Store, q query, reply *array.Dense, w *wireReplays, req string, lane int) {
	cs := e.rec.open("core", q.kind, req, 0, lane)
	ctx, tr := traceCtx(e.rec, req, "replay")
	got, err := runEmbedded(ctx, s, q)
	cs.Covered = stageTime(tr.Finish())
	e.rec.close(cs)
	if e.led.op(err, "replay %s", q.kind) {
		e.led.expectDense(q.key(), got)
	}

	var buf bytes.Buffer
	sp := e.rec.open("wire", "encode", req, 0, lane)
	t0 := time.Now()
	if q.kind == kindMulti {
		_, err = wire.WriteDenseNoCopy(&buf, reply)
	} else {
		_, err = wire.WritePlaneNoCopy(&buf, core.Plane{Dense: reply})
	}
	enc := time.Since(t0)
	e.rec.close(sp)
	if !e.led.op(err, "wire encode") {
		return
	}
	sp = e.rec.open("wire", "decode", req, 0, lane)
	t0 = time.Now()
	var d *array.Dense
	if q.kind == kindMulti {
		d, err = wire.ReadDense(bytes.NewReader(buf.Bytes()), wire.DefaultMaxFrameBytes)
	} else {
		d, err = planeDense(wire.ReadPlane(bytes.NewReader(buf.Bytes()), wire.DefaultMaxFrameBytes))
	}
	dec := time.Since(t0)
	e.rec.close(sp)
	if e.led.op(err, "wire decode") {
		e.led.expectDense(q.key(), d)
	}
	w.mu.Lock()
	w.encode = append(w.encode, us(enc))
	w.decode = append(w.decode, us(dec))
	w.replyBytes = append(w.replyBytes, float64(buf.Len()))
	w.mu.Unlock()
}

// replayPayload times the isolated wire encoding of an insert payload.
func (e *env) replayPayload(p core.Payload, w *wireReplays, req string, lane int) {
	sp := e.rec.open("wire", "EncodePayload", req, 0, lane)
	t0 := time.Now()
	_, err := wire.EncodePayload(p)
	dt := time.Since(t0)
	e.rec.close(sp)
	if e.led.op(err, "wire payload encode") {
		w.mu.Lock()
		w.payloadEn = append(w.payloadEn, us(dt))
		w.mu.Unlock()
	}
}

// selectMetrics sets the select end-to-end metrics from per-operation
// latencies in microseconds, in the order measured. select_tail_us is
// the median over consecutive slices of slice selects of each slice's
// tail. select_per_s is per second of reader busy time: a closed-loop
// reader with no think time.
func selectMetrics(rep *report, lat []float64, slice int) {
	rep.e2e["select_p50_us"] = median(lat)
	v, pct := slicedTail(lat, slice)
	rep.e2e["select_tail_us"] = v
	rep.e2e["select_per_s"] = div(float64(len(lat)), sum(lat)/1e6)
	rep.note("select_tail_us is the median over %d-select slices of p%.2f (%d selects)", min(slice, len(lat)), pct, len(lat))
}

// insertMetrics sets the insert end-to-end metrics from latencies in
// milliseconds, one slice per history indexed by position in it (NaN
// where the insert failed). insert_tail_ms is the median over the
// histories of each one's tail; insert_growth compares the last tenth
// of the histories with the first, taking at least ten inserts (and at
// most half) from each end of each.
func insertMetrics(rep *report, lat [][]float64) {
	var all, first, last, tails []float64
	pct := 0.0
	for _, l := range lat {
		tenth := min(max(10, len(l)/10), len(l)/2)
		var ok []float64
		for k, v := range l {
			if v != v { // NaN: failed insert
				continue
			}
			ok = append(ok, v)
			if k < tenth {
				first = append(first, v)
			}
			if k >= len(l)-tenth {
				last = append(last, v)
			}
		}
		all = append(all, ok...)
		t, p := tail(ok)
		tails = append(tails, t)
		pct = p
	}
	rep.e2e["insert_p50_ms"] = median(all)
	rep.e2e["insert_tail_ms"] = median(tails)
	rep.e2e["insert_growth"] = div(median(last), median(first))
	rep.note("insert_tail_ms is the median over %d histories of p%.2f; insert_growth compares %d first-tenth with %d last-tenth inserts", len(lat), pct, len(first), len(last))
}

func schema2D(name string, h, w int64) array.Schema {
	return array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: h - 1}, {Name: "X", Lo: 0, Hi: w - 1}},
		Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
	}
}

// nanSlice is n NaNs: latencies not measured yet.
func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = nan
	}
	return s
}
