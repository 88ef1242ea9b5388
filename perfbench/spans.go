package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arrayvers/internal/trace"
)

// traceHeader carries the request ID from client to server; it is the
// header the client's WithTrace sets and the server joins.
const traceHeader = "AV-Trace-Id"

// span is one timed call into a layer. Spans of one operation share Req;
// Parent links a span to the call that caused it. Covered is child work
// the program itself measured in stage counters (a store trace summary)
// rather than as spans.
type span struct {
	ID, Parent uint64
	Req        string
	Layer      string
	Name       string
	Lane       int
	Start, End time.Time
	Covered    time.Duration
}

func (s *span) id() uint64 {
	if s == nil {
		return 0
	}
	return s.ID
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// an untraced run or operation: it records nothing.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	// covered holds server-side store stage time per request, learned
	// after the request from the server's trace ring.
	covered map[string]time.Duration
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), covered: map[string]time.Duration{}}
}

func (r *recorder) open(layer, name, req string, parent uint64, lane int) *span {
	if r == nil {
		return nil
	}
	return &span{ID: r.next.Add(1), Parent: parent, Req: req, Layer: layer, Name: name, Lane: lane, Start: time.Now()}
}

func (r *recorder) close(s *span) {
	if r == nil || s == nil {
		return
	}
	s.End = time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// cover attributes store stage time to the server span of req.
func (r *recorder) cover(req string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.covered[req] += d
	r.mu.Unlock()
}

// stageTime is the total stage time in a store trace summary.
func stageTime(sum trace.Summary) time.Duration {
	var t int64
	for _, st := range sum.Stages {
		t += st.Nanos
	}
	return time.Duration(t)
}

// link resolves the spans recorded on other goroutines (the transport
// and the server handler) to their parents by request ID: an http span
// belongs to the client call of its request, a server span to the http
// round trip of its request that contains its start.
func (r *recorder) link() {
	r.mu.Lock()
	defer r.mu.Unlock()
	client := map[string]*span{}
	httpSpans := map[string][]*span{}
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Layer {
		case "client":
			client[s.Req] = s
		case "http":
			httpSpans[s.Req] = append(httpSpans[s.Req], s)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Layer {
		case "http":
			if c := client[s.Req]; c != nil {
				s.Parent, s.Lane = c.ID, c.Lane
			}
		case "server":
			s.Covered = r.covered[s.Req]
			for _, h := range httpSpans[s.Req] {
				if s.Parent == 0 || (!s.Start.Before(h.Start) && !s.Start.After(h.End)) {
					s.Parent, s.Lane = h.ID, h.Lane
				}
			}
		}
	}
}

// layerTime is one layer's aggregate self time.
type layerTime struct {
	spans int
	total time.Duration // span durations
	self  time.Duration // durations minus children and covered stage time
}

// selvesLocked returns each span's self time: its duration minus its
// child spans and stage-covered time, floored at 0 (parallel children
// can cover more than the wall time).
func (r *recorder) selvesLocked() []time.Duration {
	children := map[uint64]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	selves := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		selves[i] = max(0, s.dur()-children[s.ID]-s.Covered)
	}
	return selves
}

// selfTimes aggregates self time by layer. Stage-covered time is
// reported under the pseudo-layer "stages". e2e is the total of the
// root "op" spans and unattributed the part of it that no layer span
// covers.
func (r *recorder) selfTimes() (layers map[string]*layerTime, e2e, unattributed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	layers = map[string]*layerTime{}
	add := func(layer string, total, self time.Duration) {
		lt := layers[layer]
		if lt == nil {
			lt = &layerTime{}
			layers[layer] = lt
		}
		lt.spans++
		lt.total += total
		lt.self += self
	}
	for i, self := range r.selvesLocked() {
		s := r.spans[i]
		add(s.Layer, s.dur(), self)
		if s.Covered > 0 {
			add("stages", s.Covered, s.Covered)
		}
		if s.Layer == "op" {
			e2e += s.dur()
			unattributed += self
		}
	}
	return layers, e2e, unattributed
}

// meanSpan is the mean duration, in microseconds, of the spans of one
// layer whose name starts with prefix: their self time when self is
// set, else their whole duration.
func (r *recorder) meanSpan(layer, prefix string, self bool) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	selves := r.selvesLocked()
	var total time.Duration
	n := 0
	for i, s := range r.spans {
		if s.Layer != layer || !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		if self {
			total += selves[i]
		} else {
			total += s.dur()
		}
		n++
	}
	return div(us(total), float64(n))
}

// writeChrome dumps the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts: us(s.Start.Sub(r.epoch)), Dur: us(s.dur()), Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "stage_us": us(s.Covered)},
		})
	}
	r.mu.Unlock()
	sort.Slice(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// isDataPath reports whether a request is a data-plane call (select or
// insert) rather than a trace fetch or admin call.
func isDataPath(path string) bool { return strings.HasPrefix(path, "/v1/arrays/") }

func routeName(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// tracedTransport is the RoundTripper handed to the client in traced
// runs. It counts every data-plane round trip and refused reply, and
// records an http span per traced request that ends when the client
// closes the response body, so it covers the reply transfer.
type tracedTransport struct {
	rec        *recorder
	base       http.RoundTripper
	roundTrips atomic.Int64
	rejected   atomic.Int64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !isDataPath(req.URL.Path) {
		return t.base.RoundTrip(req)
	}
	t.roundTrips.Add(1)
	var sp *span
	if id := req.Header.Get(traceHeader); id != "" {
		sp = t.rec.open("http", req.Method+" "+routeName(req.URL.Path), id, 0, 0)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.close(sp)
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		t.rejected.Add(1)
	}
	if sp != nil {
		resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, sp: sp}
	}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	sp   *span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.close(b.sp) })
	return err
}

// tracedHandler wraps the server's handler and records a server span
// for every traced data-plane request.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(traceHeader)
		if id == "" || !isDataPath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		sp := rec.open("server", r.Method+" "+routeName(r.URL.Path), id, 0, 0)
		h.ServeHTTP(w, r)
		rec.close(sp)
	})
}
