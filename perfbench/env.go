package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"arrayvers/client"
	"arrayvers/internal/core"
	"arrayvers/internal/server"
)

// sizes fixes every workload's shape and operation counts. Counts that
// scale with the run length are per second of -seconds, so a given
// -seconds always runs the same number of operations and each
// percentile has a fixed sample count.
type sizes struct {
	// set-ups per run of each workload; setup_s is their median
	ingestSetups, serveSetups, scanSetups int
	// opens per restart; reopen_s is the interquartile mean of all opens
	opensPerRestart int

	ingestSide, ingestChunk int64
	ingestRounds            int // whole ingest cycles per run, each on a fresh store
	ingestVersions          int // per writer per round
	ingestCycles            int // restart + read-back cycles after the ingest
	ingestWindow            int // versions per read-back select
	sideArrays              int
	sideSide                int64
	sideVersions            int

	serveSide, serveChunk      int64
	servePreload               int
	serveRate                  float64 // writer inserts per second
	serveInserts, serveSelects int
	serveThink                 time.Duration // reader pause between selects
	serveRestarts              int           // restarts after the run
	serveCache                 int64
	serveWindow                int
	serveRegion                int64

	scanSide, scanChunk      int64
	scanVersions, scanBatchK int
	scanCache                int64
	scanSelects, scanWindow  int
	scanSegments             int // select segments, each on a restarted store
}

func sizesFor(size string, seconds int) (sizes, error) {
	switch size {
	case "full":
		return sizes{
			ingestSetups: 3, serveSetups: 3, scanSetups: 3, opensPerRestart: 3,
			ingestSide: 256, ingestChunk: 16 << 10, ingestRounds: 2, ingestVersions: 12 * seconds, ingestCycles: 3, ingestWindow: 10,
			sideArrays: 36, sideSide: 16, sideVersions: 2,
			serveSide: 256, serveChunk: 16 << 10, servePreload: 200,
			serveRate: 5, serveInserts: 5 * seconds, serveSelects: 600 * seconds, serveThink: time.Millisecond, serveRestarts: 10,
			serveCache: core.DefaultCacheBytes, serveWindow: 4, serveRegion: 64,
			scanSide: 256, scanChunk: 16 << 10, scanVersions: 120, scanBatchK: 16,
			scanCache: 6 << 20, scanSelects: 120 * seconds, scanWindow: 8, scanSegments: 10,
		}, nil
	case "tiny":
		return sizes{
			ingestSetups: 2, serveSetups: 2, scanSetups: 2, opensPerRestart: 2,
			ingestSide: 32, ingestChunk: 1 << 10, ingestRounds: 2, ingestVersions: 12, ingestCycles: 2, ingestWindow: 4,
			sideArrays: 4, sideSide: 8, sideVersions: 2,
			serveSide: 32, serveChunk: 1 << 10, servePreload: 12,
			serveRate: 50, serveInserts: 10, serveSelects: 40, serveThink: time.Millisecond, serveRestarts: 2,
			serveCache: 1 << 20, serveWindow: 3, serveRegion: 8,
			scanSide: 32, scanChunk: 1 << 10, scanVersions: 24, scanBatchK: 4,
			scanCache: 16 << 10, scanSelects: 40, scanWindow: 4, scanSegments: 2,
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown -size %q (want full or tiny)", size)
}

// env is one run's shared state.
type env struct {
	cfg config
	z   sizes
	dir string // the run's temporary directory
	led *ledger
	rec *recorder // nil in untraced runs
	out io.Writer
}

// opRec is the recorder for operation i: a traced run traces every
// other operation, so the untraced ones in between measure what tracing
// costs (trace.overhead_pct).
func (e *env) opRec(i int) *recorder {
	if i%2 == 0 {
		return e.rec
	}
	return nil
}

// setup builds the workload's starting state reps times, each in a
// fresh directory, keeping the last build; earlier ones are torn down
// and removed. Each build starts on a collected heap, so collecting the
// previous build's garbage does not land inside it. It returns the
// median build time.
func (e *env) setup(reps int, build func(dir string) (teardown func() error, err error)) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", i))
		runtime.GC()
		t0 := time.Now()
		teardown, err := build(dir)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			break
		}
		if err := teardown(); err != nil {
			return 0, fmt.Errorf("set-up teardown: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

func (e *env) openStore(dir string, opts core.Options) (*core.Store, error) {
	sp := e.rec.open("setup", "Open", "", 0, 0)
	s, err := core.Open(dir, opts)
	e.rec.close(sp)
	return s, err
}

func (e *env) closeStore(s *core.Store) error {
	sp := e.rec.open("setup", "Close", "", 0, 0)
	err := s.Close()
	e.rec.close(sp)
	return err
}

// restart closes the store and opens it again z.opensPerRestart times
// in a row: a restart, whose Open is manifest replay plus, on a durable
// store, crash recovery. It returns the reopened store and each Open's
// duration in seconds. Each Open starts on a collected heap, as in a
// freshly started process, so a garbage collection left over from the
// workload does not land inside it.
func (e *env) restart(s *core.Store, dir string, opts core.Options) (*core.Store, []float64, error) {
	var opens []float64
	for range e.z.opensPerRestart {
		if err := e.closeStore(s); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = e.openStore(dir, opts); err != nil {
			return nil, nil, fmt.Errorf("reopen: %w", err)
		}
		opens = append(opens, time.Since(t0).Seconds())
	}
	return s, opens, nil
}

// checkVersions verifies that a reopened store lists exactly the
// acknowledged versions of an array.
func (e *env) checkVersions(s *core.Store, name string, acked []int) {
	vs, err := s.Versions(name)
	if !e.led.op(err, "versions %s", name) {
		return
	}
	live := make(map[int]bool, len(vs))
	for _, v := range vs {
		live[v.ID] = true
	}
	for _, id := range acked {
		if !live[id] {
			e.led.failf("%s: acknowledged version %d missing after reopen", name, id)
		}
	}
	if len(vs) != len(acked) {
		e.led.failf("%s: %d versions after reopen, %d acknowledged", name, len(vs), len(acked))
	}
}

// split keeps the latencies of traced and untraced operations apart.
type split struct {
	mu            sync.Mutex
	traced, plain []float64
}

func (s *split) add(traced bool, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if traced {
		s.traced = append(s.traced, v)
	} else {
		s.plain = append(s.plain, v)
	}
}

// overheadPct is how much slower the median traced operation ran than
// the median untraced one.
func (s *split) overheadPct() float64 {
	if len(s.traced) == 0 || len(s.plain) == 0 {
		return 0
	}
	return 100 * (median(s.traced)/median(s.plain) - 1)
}

// wireReplays are isolated encode/decode timings of sampled replies and
// payloads.
type wireReplays struct {
	mu                                    sync.Mutex
	encode, decode, replyBytes, payloadEn []float64
}

// layerInputs is what a workload hands to layerMetrics.
type layerInputs struct {
	ins, sel, main *window // insert phase, select phase, whole measured phase
	transports     []*tracedTransport
	remoteCalls    int64
	wire           *wireReplays
	reorganizeS    float64
	writerLateMs   float64
	overhead       *split
	recordBytes    float64
}

// layerMetrics fills every per-layer metric from spans and counters.
func (e *env) layerMetrics(rep *report, in layerInputs) {
	L := rep.layer
	r := e.rec
	r.link()
	L["client.self_us"] = r.meanSpan("client", "", true)
	L["http.transport_us"] = r.meanSpan("http", "", true)
	L["server.handler_self_us"] = r.meanSpan("server", "", true)
	var trips, rejected int64
	for _, t := range in.transports {
		trips += t.roundTrips.Load()
		rejected += t.rejected.Load()
	}
	L["client.retries"] = float64(max(0, trips-in.remoteCalls))
	L["server.rejected"] = float64(rejected)
	w := in.wire
	if w == nil {
		w = &wireReplays{}
	}
	L["wire.encode_us"] = mean(w.encode)
	L["wire.decode_us"] = mean(w.decode)
	L["wire.reply_bytes"] = mean(w.replyBytes)
	L["wire.payload_encode_us"] = mean(w.payloadEn)
	L["core.select_us"] = r.meanSpan("core", "Select", false)
	for _, st := range []string{core.StageSnapshot, core.StageCache, core.StageRead, core.StageDecode, core.StageDelta, core.StageMaterialize} {
		L["core."+st+"_us"] = 1e6 * in.sel.perOp("select."+st)
	}
	for _, st := range []string{core.StageStageEncode, core.StageQueueWait, core.StageDataFsync, core.StageMetaCommit, core.StageInstall} {
		L["core."+st+"_ms"] = 1e3 * in.ins.perOp("commit."+st)
	}
	L["core.manifest_records_per_append"] = div(in.ins.get("manifest_records"), in.ins.get("manifest_appends"))
	L["core.manifest_fsyncs_per_insert"] = in.ins.perOp("manifest_fsyncs")
	L["core.manifest_rotations"] = in.ins.get("manifest_rotations")
	L["core.manifest_record_bytes"] = in.recordBytes
	L["core.reorganize_s"] = in.reorganizeS

	hits, misses := in.sel.get("cache_hits"), in.sel.get("cache_misses")
	L["cache.hit_ratio"] = div(hits, hits+misses)
	L["cache.evictions_per_op"] = in.sel.perOp("cache_evictions")
	L["cache.rejected"] = in.sel.get("cache_rejected")
	L["bitpack.kernel_ops_per_select"] = in.sel.perOp("kernel_ops")
	L["fsio.bytes_read_per_select"] = in.sel.perOp("bytes_read")
	L["fsio.chunks_read_per_select"] = in.sel.perOp("chunks_read")
	L["fsio.mmap_read_ratio"] = div(in.sel.get("mmap_reads"), in.sel.get("chunks_read"))
	L["fsio.bytes_written_per_user_byte"] = div(in.ins.get("bytes_written"), float64(in.ins.userBytes))

	L["go.alloc_bytes_per_op"] = in.main.perOp("/gc/heap/allocs:bytes")
	L["go.gc_cpu_fraction"] = div(in.main.get("/cpu/classes/gc/total:cpu-seconds"), in.main.get("/cpu/classes/total:cpu-seconds"))
	L["gen.writer_late_ms"] = in.writerLateMs
	o := in.overhead
	if o == nil {
		o = &split{}
	}
	L["trace.overhead_pct"] = o.overheadPct()
}

// service is the store's HTTP service on a loopback port, as avstored
// serves it.
type service struct {
	srv  *http.Server
	done chan error
	url  string
}

func startService(rec *recorder, store *core.Store) (*service, error) {
	s, err := server.New(server.Config{Store: store, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if rec != nil {
		h = tracedHandler(rec, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := &service{srv: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { svc.done <- svc.srv.Serve(ln) }()
	return svc, nil
}

// stop shuts the service down and waits for its serve loop to exit.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// newClient builds a client with its own transport, so each client
// holds one connection. In a traced run the transport records spans.
func newClient(url string, rec *recorder) (*client.Client, *tracedTransport) {
	base := &http.Transport{MaxIdleConnsPerHost: 1}
	hc := &http.Client{Timeout: time.Minute, Transport: base}
	var tt *tracedTransport
	if rec != nil {
		tt = &tracedTransport{rec: rec, base: base}
		hc.Transport = tt
	}
	return client.New(url, client.WithHTTPClient(hc)), tt
}
