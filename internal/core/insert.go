package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/cache"
	"arrayvers/internal/compress"
	"arrayvers/internal/delta"
	"arrayvers/internal/layout"
	"arrayvers/internal/trace"
)

// The insert commit path.
//
// An insert runs in two phases. *Staging* resolves the payload, picks
// a delta base, reserves version ids (stageNext), and encodes every
// chunk — appending blobs (unsynced) to the chunk files — against a
// cloned metadata snapshot, holding only the array's writeMu (which
// serializes appenders on one array) and its shared I/O latch (which
// pins the chunk generation); Store.mu is held just long enough to take
// the snapshot, so inserts encode concurrently and never stall readers.
// *Commit* hands the request to the store-wide commit queue: whichever
// insert holds the commit latch (the manifest's writer latch, which
// every metadata writer takes) drains the whole queue, fsyncs the union
// of the drained requests' files once each, validates each request as
// a unit against the live state (generation unchanged, delta bases
// still live, representation consistent), and publishes every
// survivor, across all arrays, with ONE manifest record
// (commitQueued).
//
// Nothing is installed into the live arrayState until that record is
// appended: mutators build a staged arrayMeta and install it only after
// the append returns, so a failed commit leaves in-memory metadata
// exactly equal to on-disk metadata (no phantom versions a select could
// read but a reopen would lose), and the blobs a failed stage appended
// are reclaimed at the failure site (writeSet.sweep).

// Plane is the content of one attribute of one version: either a dense
// or a sparse array over the schema's dimensions.
type Plane struct {
	Dense  *array.Dense
	Sparse *array.Sparse
}

// IsSparse reports whether the plane uses the sparse representation.
func (p Plane) IsSparse() bool { return p.Sparse != nil }

func (p Plane) validate(schema array.Schema, attr array.Attribute) error {
	switch {
	case p.Dense != nil && p.Sparse != nil:
		return fmt.Errorf("core: plane has both dense and sparse content")
	case p.Dense != nil:
		if p.Dense.DType() != attr.Type {
			return fmt.Errorf("core: attribute %q expects %v, payload is %v", attr.Name, attr.Type, p.Dense.DType())
		}
		return checkShape(schema, p.Dense.Shape())
	case p.Sparse != nil:
		if p.Sparse.DType() != attr.Type {
			return fmt.Errorf("core: attribute %q expects %v, payload is %v", attr.Name, attr.Type, p.Sparse.DType())
		}
		return checkShape(schema, p.Sparse.Shape())
	default:
		return fmt.Errorf("core: empty plane")
	}
}

func checkShape(schema array.Schema, shape []int64) error {
	want := schema.Shape()
	if len(shape) != len(want) {
		return fmt.Errorf("core: payload has %d dims, schema has %d", len(shape), len(want))
	}
	for i := range want {
		if shape[i] != want[i] {
			return fmt.Errorf("core: payload shape %v, schema shape %v", shape, want)
		}
	}
	return nil
}

// CellUpdate is one element of a delta-list payload: set the cell at
// Coords (for attribute Attr, default the first) to the given bit
// pattern.
type CellUpdate struct {
	Attr   string
	Coords []int64
	Bits   int64
}

// Payload is the content of an Insert, in one of the paper's three forms
// (§II-A): dense, sparse, or a delta-list against a base version.
type Payload struct {
	// Planes carries the full content, one plane per attribute (dense or
	// sparse form).
	Planes []Plane
	// DeltaBase, when positive, selects the delta-list form: the new
	// version equals version DeltaBase except at the listed updates.
	DeltaBase int
	Updates   []CellUpdate
}

// DensePayload wraps a single-attribute dense content.
func DensePayload(d *array.Dense) Payload { return Payload{Planes: []Plane{{Dense: d}}} }

// SparsePayload wraps a single-attribute sparse content.
func SparsePayload(sp *array.Sparse) Payload { return Payload{Planes: []Plane{{Sparse: sp}}} }

// DeltaListPayload builds the delta-list insert form.
func DeltaListPayload(base int, updates []CellUpdate) Payload {
	return Payload{DeltaBase: base, Updates: updates}
}

// insertCtx carries the filesystem coordinates one staged mutation
// encodes against: the metadata view it resolves bases through, the
// chunk directory and format of the generation it pinned, the
// representation it encodes with, the write-set recording its appends,
// and a per-stage chunk memo so repeated base reads walk each delta
// chain once. Reads through ctx.v follow the view's per-id cache rule:
// committed bases read and fill the store-wide LRU, while the ids this
// staging reserved (readView.stagedFrom) never touch it — they are not
// committed, and a failed commit may hand them to different content.
type insertCtx struct {
	st     *arrayState
	v      *readView
	ws     *writeSet
	qc     *chunkCache
	dir    string
	format int
	sparse bool
	goCtx  context.Context // caller's cancellation; nil means Background

	// keepPlanes asks encodePlane to collect the private dense chunk
	// copies it encodes into planes, for write-through into the LRU
	// once the commit lands (publishLocked). Set on stores with a cache.
	keepPlanes bool
	planes     []chunkPlane
}

// chunkPlane is the content of one dense chunk of a staged version,
// kept from encoding until its commit publishes it write-through.
type chunkPlane struct {
	id    int
	attr  string
	chunk string
	d     *array.Dense
}

// context returns the caller's context, defaulting to Background for
// internal paths (Branch, Merge, DeleteVersion, the AutoBatchK
// re-encode) that stage without one. Cancellation is only honored
// during staging — a payload that reached the shared commit queue
// always runs to completion, so a latch holder never aborts other
// requests' work.
func (c *insertCtx) context() context.Context {
	if c.goCtx != nil {
		return c.goCtx
	}
	return context.Background() //avlint:allow-ctx the designated fallback for internal non-cancellable staging (Branch, Merge, re-encodes); every cancellable path sets goCtx
}

// writeSet tracks the chunk-file byte ranges appended by one staged
// mutation, for the two jobs that follow staging: fsyncing each touched
// file exactly once before the commit, and reclaiming the bytes if the
// mutation fails before committing.
type writeSet struct {
	mu    sync.Mutex
	files map[string]*fileSpan
}

type fileSpan struct {
	start int64 // offset of this mutation's first byte in the file
	end   int64 // offset one past this mutation's last byte
}

func newWriteSet() *writeSet { return &writeSet{files: map[string]*fileSpan{}} }

// record merges one append into the set. Within one staged mutation the
// array's writeMu excludes other appenders, so a file's recorded spans
// are contiguous and min/max merging is exact.
func (w *writeSet) record(path string, start, end int64) {
	w.mu.Lock()
	if sp, ok := w.files[path]; ok {
		if start < sp.start {
			sp.start = start
		}
		if end > sp.end {
			sp.end = end
		}
	} else {
		w.files[path] = &fileSpan{start: start, end: end}
	}
	w.mu.Unlock()
}

// sortedPaths returns the touched files in a deterministic order, so
// the fault-injection matrix sees the same fsync/sweep step sequence on
// every run.
func (w *writeSet) sortedPaths() []string { return sortedKeys(w.files) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (w *writeSet) empty() bool { return len(w.files) == 0 }

// totalBytes sums the staged spans — the payload volume this mutation
// appended, reported as the commit stages' byte attribution.
func (w *writeSet) totalBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n int64
	for _, sp := range w.files {
		n += sp.end - sp.start
	}
	return n
}

// createdFiles reports whether the mutation created any chunk file (a
// span starting at offset zero; a pre-existing file is never appended
// at zero). Only creations need the chunks directory fsynced before
// the metadata commit — an append to an existing file changes no
// directory entry, and fsyncing the file persists its inode size — so
// steady-state appends skip the directory flush entirely.
func (w *writeSet) createdFiles() bool {
	for _, sp := range w.files {
		if sp.start == 0 {
			return true
		}
	}
	return false
}

// syncFile fsyncs one chunk file through the FS seam. The close error
// is merged — a failed close after kernel-buffered writes is silent
// data loss.
func (s *Store) syncFile(path string) error {
	f, err := s.fs.Append(path)
	if err != nil {
		return err
	}
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// sync makes the set's appends durable before a commit references
// them: every touched file in sorted order, then dir — the chunks
// directory they live in — when the set created a file. No-op without
// Durability.
func (w *writeSet) sync(s *Store, dir string) error {
	if !s.opts.Durability {
		return nil
	}
	for _, path := range w.sortedPaths() {
		if err := s.syncFile(path); err != nil {
			return err
		}
	}
	if w.createdFiles() {
		return s.fs.SyncDir(dir)
	}
	return nil
}

// sweep reclaims the staged bytes after a failure. A file whose current
// size equals the recorded span's end has seen no later appends, so the
// span is the file's tail: the file is removed when the span started at
// offset zero (the failed mutation created it) and truncated back
// otherwise. A file someone appended to after us is left alone — the
// bytes become dangling (Verify counts them, Compact reclaims them) —
// so the sweep can never cut another stager's staged frames. Callers
// must hold the array's writeMu so no append can land between the size
// check and the truncate. Best-effort: errors are ignored (the store
// may be mid-crash, or the whole generation already swept by a
// rewrite); what was reclaimed feeds Stats.
func (w *writeSet) sweep(s *Store) {
	var files, bytes int64
	for _, path := range w.sortedPaths() {
		sp := w.files[path]
		// the size check is a read, which (like readBlob and recovery's
		// directory scans) stays on the plain os package per the fsio
		// contract; only the Remove/Truncate mutations go through the seam
		info, err := os.Stat(path)
		if err != nil || info.Size() != sp.end {
			continue
		}
		if sp.start == 0 {
			if s.fs.Remove(path) == nil {
				files++
				bytes += sp.end
			}
		} else if s.fs.Truncate(path, sp.start) == nil {
			files++
			bytes += sp.end - sp.start
		}
	}
	s.addInsertOrphans(files, bytes)
}

// stagedInsert is one array's part of a commit request: a batch of
// payloads staged on the array, awaiting the shared commit.
type stagedInsert struct {
	st     *arrayState
	vms    []*versionMeta // staged versions with reserved ids, in order
	sparse bool           // representation the payloads were encoded with
	fill   int64
	gen    int    // chunk generation the blobs were appended into
	format int    // and its chunk format
	heals  uint64 // st.heals when staged: a later heal swept the blobs
	ws     *writeSet
	// planes are the staged dense chunks, published write-through to
	// the LRU only if the commit installs them
	planes []chunkPlane
}

// commitReq is one insert request — an InsertBatch (one part) or an
// InsertMulti (one part per array, in sorted-name order) — on its way
// through the store-wide commit queue. It commits as a unit: every
// part's versions become visible in the same manifest record, or none
// do.
type commitReq struct {
	parts []*stagedInsert
	// tr is the request's trace (nil when untraced); the latch holder
	// attributes the shared commit stages to it.
	tr         *trace.Trace
	enqueuedAt time.Time

	// outcome, final once done is closed
	done  chan struct{}
	err   error
	retry bool // staging was invalidated (generation moved / base died)
}

func (r *commitReq) fail(err error) {
	if r.err == nil && !r.retry {
		r.err = err
	}
}

func (r *commitReq) pending() bool { return r.err == nil && !r.retry }

// repChoice is an empty array's representation as fixed by a staged,
// not yet committed first insert.
type repChoice struct {
	sparse bool
	fill   int64
}

// insertRetries bounds the optimistic stage attempts before an insert
// stages under the commit latch instead (guaranteed progress when the
// array is rewritten faster than staging can revalidate).
const insertRetries = 3

// Insert adds a new version to the named array and returns its ID
// (temporal versions are numbered 1, 2, ... as in AQL's Example@1).
func (s *Store) Insert(name string, p Payload) (int, error) {
	return s.InsertCtx(context.Background(), name, p)
}

// InsertCtx is Insert honoring ctx during the staging (resolve +
// encode) phase. Once the payload reaches the shared commit queue the
// commit always runs to completion: cancellation can never abort a
// group commit other inserts are riding on, so a ctx error from this
// method means no version was created.
func (s *Store) InsertCtx(ctx context.Context, name string, p Payload) (int, error) {
	ids, err := s.InsertBatchCtx(ctx, name, []Payload{p})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// InsertBatch adds a batch of versions to the named array in one shared
// commit and returns their IDs in payload order. The batch is atomic:
// either every payload becomes a committed version or none does (one
// metadata commit covers them all). Payloads are resolved in
// order, so later batch members delta-encode against earlier ones when
// that is smaller, and each member's lineage parent is its predecessor
// in the batch. Delta-list payloads must reference already-committed
// versions.
//
// Concurrent durable inserts coalesce, on one array or many: each
// staged insert joins the store-wide commit queue, and whichever insert
// takes the commit latch fsyncs every queued insert's files once and
// publishes them all with one manifest record, so ingest throughput scales
// past the single-commit fsync latency (see DESIGN.md "Write path &
// group commit").
func (s *Store) InsertBatch(name string, ps []Payload) ([]int, error) {
	return s.InsertBatchCtx(context.Background(), name, ps)
}

// InsertBatchCtx is InsertBatch honoring ctx during staging (see
// InsertCtx for the cancellation contract).
func (s *Store) InsertBatchCtx(ctx context.Context, name string, ps []Payload) ([]int, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("core: empty insert batch")
	}
	if err := s.writeGate(name); err != nil {
		return nil, err
	}
	ids, err := s.insert(ctx, []MultiInsert{{Array: name, Payloads: ps}})
	if err != nil {
		return nil, err
	}
	return ids[0], nil
}

// lockArray resolves an array and acquires the latches pick selects —
// which MUST be returned in the documented latch order (reorgMu <
// commit latch < writeMu) — then re-verifies the array was not dropped
// or replaced while waiting, retrying if it was. The caller releases
// the latches in reverse order. Latches are always acquired without
// holding Store.mu.
func (s *Store) lockArray(name string, pick func(st *arrayState) []*sync.Mutex) (*arrayState, error) {
	for {
		s.mu.RLock()
		st, ok := s.arrays[name]
		closed := s.closed
		s.mu.RUnlock()
		if closed {
			return nil, ErrClosed
		}
		if !ok {
			return nil, fmt.Errorf("core: no array %q", name)
		}
		latches := pick(st)
		for _, l := range latches {
			l.Lock()
		}
		s.mu.RLock()
		cur := s.arrays[name]
		s.mu.RUnlock()
		if cur == st {
			return st, nil
		}
		// dropped or replaced while we waited; retry
		for i := len(latches) - 1; i >= 0; i-- {
			latches[i].Unlock()
		}
	}
}

// lockWrite takes the array's write latch (insert staging). The caller
// releases st.writeMu.
func (s *Store) lockWrite(name string) (*arrayState, error) {
	return s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.writeMu}
	})
}

// insert runs one request through the pipeline: stage every batch
// (sorted by array name, names distinct) and commit through the queue,
// re-staging when a concurrent rewrite or delete invalidated the
// staging. It returns each batch's ids.
func (s *Store) insert(ctx context.Context, batches []MultiInsert) ([][]int, error) {
	for attempt := 0; attempt < insertRetries; attempt++ {
		req, err := s.stageRequest(ctx, batches)
		if err != nil {
			return nil, err
		}
		s.awaitCommit(req)
		if ids, err := s.settle(req); !req.retry {
			return ids, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.insertFallback(ctx, batches)
}

// insertFallback is the contended path: after insertRetries
// invalidated stagings, the request stages while holding the commit
// latch — under which no generation can move and no delta base can die
// — then commits itself together with whatever is queued.
func (s *Store) insertFallback(ctx context.Context, batches []MultiInsert) ([][]int, error) {
	s.man.mu.Lock()
	defer s.man.mu.Unlock()
	req, err := s.stageRequest(ctx, batches)
	if err != nil {
		return nil, err
	}
	req.enqueuedAt = time.Now()
	s.commitQueued(append(s.man.drain(), req))
	if req.retry {
		req.retry = false
		req.fail(fmt.Errorf("core: insert staging invalidated under the commit latch"))
	}
	return s.settle(req)
}

// stageRequest stages each batch on its array under that array's write
// latch, in order. On error every part staged so far is reclaimed.
func (s *Store) stageRequest(ctx context.Context, batches []MultiInsert) (*commitReq, error) {
	req := &commitReq{tr: trace.FromContext(ctx), done: make(chan struct{})}
	for _, b := range batches {
		st, err := s.lockWrite(b.Array)
		if err == nil {
			var part *stagedInsert
			part, err = s.stageBatch(ctx, st, b.Payloads, "insert")
			if err == nil {
				req.parts = append(req.parts, part)
			}
			st.writeMu.Unlock()
		}
		if err != nil {
			s.unstage(req)
			return nil, err
		}
	}
	return req, nil
}

// settle returns a finished request's ids per part, or reclaims a
// request that did not commit and returns its error.
func (s *Store) settle(req *commitReq) ([][]int, error) {
	if !req.pending() {
		s.unstage(req)
		return nil, req.err
	}
	ids := make([][]int, len(req.parts))
	for i, p := range req.parts {
		for _, vm := range p.vms {
			ids[i] = append(ids[i], vm.ID)
		}
	}
	return ids, nil
}

// unstage reclaims every part of a request that will not commit, each
// under its array's write latch.
func (s *Store) unstage(req *commitReq) {
	for _, p := range req.parts {
		p.st.writeMu.Lock()
		s.reclaimLocked(p.st, p.ws, p.vms[0].ID, p.vms[len(p.vms)-1].ID+1)
		p.st.writeMu.Unlock()
	}
}

// reclaimLocked undoes a staging that will not commit: its blobs are
// swept, its reserved ids [first, end) handed back when they are still
// the top of the reservation space (no later stage reserved past
// them), so a failed insert leaves no version-id gap, and the staged
// representation is forgotten (the commit re-validates whatever
// in-flight stagings encoded with). Callers hold st.writeMu, so the
// sweep's size checks cannot race another stager's appends.
func (s *Store) reclaimLocked(st *arrayState, ws *writeSet, first, end int) {
	ws.sweep(s)
	if st.stageNext == end {
		st.stageNext = first
	}
	st.stagedRep = nil
}

// stageBatch resolves and encodes a batch of payloads against a private
// metadata snapshot, appending chunk blobs (unsynced) to the pinned
// generation. On success the returned part is ready to commit; on
// error every appended blob has been reclaimed and the reserved ids
// returned to the pool. Callers hold st.writeMu, which also guards the
// id reservation (stageNext) and the staged representation.
func (s *Store) stageBatch(ctx context.Context, st *arrayState, ps []Payload, kind string) (*stagedInsert, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// snapshot under the store lock: metadata view, generation pin (the
	// I/O read latch is acquired before the lock drops, so a rewrite
	// cannot remove the generation out from under the appends), and the
	// committed NextID the reservation starts from.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	name := st.Schema.Name
	if s.arrays[name] != st {
		s.mu.RUnlock()
		return nil, fmt.Errorf("core: no array %q", name)
	}
	v := s.viewLocked(st, true)
	repOpen := len(st.Versions) == 0
	sparse, fill := st.SparseRep, st.Fill
	// stageNext only moves forward past the committed NextID: ids
	// reserved by stagings still in flight are not committed yet, so
	// resetting to NextID could hand two inserts the same id. Ids lost
	// to commit-time failures below the top stay gaps (never reused).
	if st.stageNext < st.NextID {
		st.stageNext = st.NextID
	}
	st.ioMu.RLock()
	gen, format := st.Gen, st.Format
	s.mu.RUnlock()
	defer st.ioMu.RUnlock()

	baseID := st.stageNext
	st.stageNext += len(ps)
	v.stagedFrom = baseID
	repFixed := !repOpen
	if repOpen && st.stagedRep != nil {
		// an uncommitted first insert already fixed the representation;
		// encode consistently with it (the commit re-validates)
		repFixed, sparse, fill = true, st.stagedRep.sparse, st.stagedRep.fill
	}
	ins := &stagedInsert{st: st, gen: gen, format: format, heals: st.heals, ws: newWriteSet()}
	ictx := &insertCtx{st: st, v: v, ws: ins.ws, qc: newChunkCache(), dir: v.dir, format: format, sparse: sparse, goCtx: ctx,
		keepPlanes: s.chunkCache != nil}
	fail := func(err error) (*stagedInsert, error) {
		s.reclaimLocked(st, ins.ws, baseID, baseID+len(ps))
		s.noteDiskPressure(err) // staging failures are benign, ENOSPC is not
		return nil, err
	}
	encStart := time.Now()
	for j, p := range ps {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		vm, err := s.stagePayload(ictx, p, baseID+j, kind, &repFixed, &sparse, &fill)
		if err != nil {
			return fail(err)
		}
		ins.vms = append(ins.vms, vm)
	}
	encDur := time.Since(encStart)
	s.prof.observeCommit(StageStageEncode, encDur, ins.ws.totalBytes())
	trace.FromContext(ctx).Observe(StageStageEncode, encDur, ins.ws.totalBytes())
	// A chunk file this staging created is shared once writeMu drops:
	// later stagings, DeleteVersion and the AutoBatchK re-encode append
	// to it and may commit before this staging does, or without it when
	// it fails. Its directory entry is therefore made durable now, while
	// nothing else can reference the file; the data fsync stays with the
	// commit (syncQueued).
	if s.opts.Durability && ins.ws.createdFiles() {
		if err := s.fs.SyncDir(v.dir); err != nil {
			s.noteCommitFailure(st, err)
			return fail(err)
		}
	}
	ins.sparse, ins.fill = sparse, fill
	ins.planes = ictx.planes
	if repOpen && st.stagedRep == nil {
		st.stagedRep = &repChoice{sparse: sparse, fill: fill}
	}
	return ins, nil
}

// stagePayload resolves, validates, and encodes one payload as version
// id. The representation state (repFixed/sparse/fill) carries across a
// staging session: the first version of an empty array fixes it, later
// payloads must match. The staged version is published through the
// context's view, so later payloads of the same session chain their
// lineage to it and may delta-encode against it — versions staged by
// OTHER sessions stay invisible (their commit may still fail), which
// is why concurrent single inserts that coalesce into one group commit
// become siblings of the last committed version rather than a chain.
func (s *Store) stagePayload(ctx *insertCtx, p Payload, id int, kind string, repFixed *bool, sparse *bool, fill *int64) (*versionMeta, error) {
	st := ctx.st
	planes, parents, err := s.resolvePayload(ctx, p)
	if err != nil {
		return nil, err
	}
	// the representation is fixed by the first inserted version
	if !*repFixed {
		*sparse = planes[0].IsSparse()
		if *sparse {
			*fill = planes[0].Sparse.Fill()
		}
		ctx.sparse = *sparse
		*repFixed = true
	}
	for i, pl := range planes {
		if pl.IsSparse() != *sparse {
			return nil, fmt.Errorf("core: array %q uses the %s representation; payload attribute %d does not",
				st.Schema.Name, repName(*sparse), i)
		}
		if *sparse && pl.Sparse.Fill() != *fill {
			return nil, fmt.Errorf("core: array %q has default value %d, payload has %d",
				st.Schema.Name, *fill, pl.Sparse.Fill())
		}
	}
	vm := &versionMeta{
		ID:      id,
		Parents: dedupInts(parents),
		Time:    s.clock(),
		Kind:    kind,
		Chunks:  make(map[string]map[string]chunkEntry),
	}
	base := s.chooseDeltaBase(ctx, planes)
	for ai, attr := range st.Schema.Attrs {
		entries, err := s.encodePlane(ctx, id, attr, planes[ai], base)
		if err != nil {
			return nil, err
		}
		vm.Chunks[attr.Name] = entries
	}
	ctx.v.byID[id] = vm
	ctx.v.ids = append(ctx.v.ids, id)
	return vm, nil
}

// awaitCommit enqueues a staged request on the store-wide commit queue
// and returns once its outcome is final. Whichever inserter takes the
// commit latch drains the whole queue and commits it (commitQueued), so
// requests queued while a commit is in flight ride the next one — the
// commit window is the duration of the commit in front, no timers
// involved. Once a waiter holds the latch its request is either in the
// queue or already committed by the holder in front, so one pass
// suffices.
func (s *Store) awaitCommit(req *commitReq) {
	man := s.man
	req.enqueuedAt = time.Now()
	man.qmu.Lock()
	man.queue = append(man.queue, req)
	man.qmu.Unlock()
	man.mu.Lock()
	select {
	case <-req.done:
	default:
		s.commitQueued(man.drain())
	}
	man.mu.Unlock()
}

// syncQueued makes the drained requests' payloads durable before their
// commit: the union of their touched files, each fsynced ONCE —
// concurrent inserts on one array share its chain files, and this
// sharing is where group commit's throughput comes from. The
// chunks directory entries of files they created are already durable
// (stageBatch). A missing file means a rewrite swept the generation
// mid-stage: every request that touched it re-stages. Any other
// failure may have dropped written pages, so the array degrades and
// its requests fail. No-op without Durability.
func (s *Store) syncQueued(batch []*commitReq) {
	if !s.opts.Durability {
		return
	}
	type touch struct {
		r  *commitReq
		st *arrayState
	}
	files := map[string][]touch{}
	var total int64
	for _, r := range batch {
		if !r.pending() {
			continue
		}
		for _, p := range r.parts {
			for path := range p.ws.files {
				files[path] = append(files[path], touch{r, p.st})
			}
			total += p.ws.totalBytes()
		}
	}
	start := time.Now()
	paths := sortedKeys(files)
	errs := make([]error, len(paths))
	// independent files fsync in parallel on the hot-path pool, so the
	// data fsyncs of coalesced inserts on different arrays overlap as
	// they would outside the latch; with one worker the order is the
	// sorted one, which is what the fault matrices enumerate
	_ = forEachLimit(context.Background(), len(paths), s.opts.Parallelism, func(i int) error {
		errs[i] = s.syncFile(paths[i])
		return nil
	})
	for i, path := range paths {
		for _, t := range files[path] {
			switch err := errs[i]; {
			case err == nil:
			case errors.Is(err, fs.ErrNotExist):
				if t.r.pending() {
					t.r.retry = true
				}
			default:
				s.noteCommitFailure(t.st, err)
				t.r.fail(err)
			}
		}
	}
	d := time.Since(start)
	s.prof.observeCommit(StageDataFsync, d, total)
	for _, r := range batch {
		var b int64
		for _, p := range r.parts {
			b += p.ws.totalBytes()
		}
		// the whole shared fsync schedule is each request's wait
		r.tr.Observe(StageDataFsync, d, b)
	}
}

// drain empties the commit queue. Callers hold the commit latch.
func (man *manifest) drain() []*commitReq {
	man.qmu.Lock()
	batch := man.queue
	man.queue = nil
	man.qmu.Unlock()
	return batch
}

// commitDraft is one touched array's part of a drained commit: the
// staged document installing every accepted part, built from the live
// state.
type commitDraft struct {
	st    *arrayState
	live  map[int]bool // live ids plus those of parts accepted so far
	rep   *repChoice   // the array's representation; nil while none is fixed
	parts []*stagedInsert
	doc   *arrayMeta
	ws    *writeSet // the AutoBatchK re-encode's appends
}

// commitQueued commits a drained queue: it rejects requests on a
// degraded array or one healed since they staged (the heal swept their
// blobs), makes the rest durable
// (syncQueued), validates them, and commits every request that
// validates in ONE manifest record with one op per touched array.
// Every request's outcome is final (done closed) when it returns.
// Callers hold the commit latch, which every other metadata writer also
// takes, so nothing validated here can change before the install.
func (s *Store) commitQueued(batch []*commitReq) {
	if len(batch) == 0 {
		return
	}
	defer func() {
		for _, r := range batch {
			close(r.done)
		}
	}()
	now := time.Now()
	for _, r := range batch {
		wait := now.Sub(r.enqueuedAt)
		s.prof.observeCommit(StageQueueWait, wait, 0)
		r.tr.Observe(StageQueueWait, wait, 0)
		for _, p := range r.parts {
			err := s.writeGate(p.st.Schema.Name)
			if err == nil && p.heals != p.st.heals {
				// a heal swept this staging's unsynced blobs
				err = fmt.Errorf("core: array %q is read-only: %w", p.st.Schema.Name, ErrDegraded)
			}
			if err != nil {
				r.fail(err)
				break
			}
		}
	}
	s.syncQueued(batch)
	if s.opts.AutoBatchK > 1 {
		// the batched-update re-encode appends to chunk files; appends
		// require the write latch (see writeSet.sweep and appendBlob),
		// taken in sorted-name order
		var sts []*arrayState
		seen := map[*arrayState]bool{}
		for _, r := range batch {
			for _, p := range r.parts {
				if !seen[p.st] {
					seen[p.st] = true
					sts = append(sts, p.st)
				}
			}
		}
		sort.Slice(sts, func(i, j int) bool { return sts[i].Schema.Name < sts[j].Schema.Name })
		for _, st := range sts {
			st.writeMu.Lock()
			defer st.writeMu.Unlock()
		}
	}
	s.mu.RLock()
	ok, drafts := s.validateLocked(batch)
	err := s.buildDraftsLocked(drafts)
	s.mu.RUnlock()
	if err == nil {
		err = s.commitDrafts(ok, drafts)
	}
	if err != nil {
		for _, d := range drafts {
			d.ws.sweep(s) // writeMu is held whenever ws is non-empty
		}
		for _, r := range ok {
			r.fail(err)
		}
	}
}

// validateLocked checks each pending request as a unit against the
// live state — store open, array still live, generation and format
// unchanged, delta bases still live, representation consistent — and returns the accepted requests plus
// one draft per array they touch, in name order. A part that fails
// rejects its whole request. Callers hold Store.mu.
func (s *Store) validateLocked(batch []*commitReq) (ok []*commitReq, drafts []*commitDraft) {
	byArray := map[*arrayState]*commitDraft{}
	draft := func(st *arrayState) *commitDraft {
		d := byArray[st]
		if d == nil {
			d = &commitDraft{st: st, live: map[int]bool{}, ws: newWriteSet()}
			for _, vm := range st.live() {
				d.live[vm.ID] = true
			}
			if len(st.Versions) > 0 {
				d.rep = &repChoice{sparse: st.SparseRep, fill: st.Fill}
			}
			byArray[st] = d
		}
		return d
	}
	for _, r := range batch {
		if !r.pending() {
			continue
		}
		if s.closed {
			r.fail(ErrClosed)
			continue
		}
		for _, p := range r.parts {
			st := p.st
			name := st.Schema.Name
			switch d := draft(st); {
			case s.arrays[name] != st:
				r.fail(fmt.Errorf("core: no array %q", name))
			case p.gen != st.Gen || p.format != st.Format:
				// a rewrite committed a new generation: the staged blobs
				// live in the superseded directory and die with it
				r.retry = true
			case d.rep != nil && (p.sparse != d.rep.sparse || (p.sparse && p.fill != d.rep.fill)):
				r.fail(fmt.Errorf("core: array %q uses the %s representation; staged payload does not",
					name, repName(d.rep.sparse)))
			case staleBase(p, d.live) != 0:
				// a delta base was deleted between stage and commit
				r.retry = true
			}
			if !r.pending() {
				break
			}
		}
		if !r.pending() {
			continue
		}
		for _, p := range r.parts {
			d := byArray[p.st]
			d.parts = append(d.parts, p)
			if d.rep == nil {
				d.rep = &repChoice{sparse: p.sparse, fill: p.fill}
			}
		}
		ok = append(ok, r)
	}
	for _, d := range byArray {
		if len(d.parts) > 0 {
			drafts = append(drafts, d)
		}
	}
	sort.Slice(drafts, func(i, j int) bool { return drafts[i].st.Schema.Name < drafts[j].st.Schema.Name })
	return ok, drafts
}

// buildDraftsLocked builds each draft's staged document: the live
// document plus every accepted part's versions, kept in id order (an
// insert that reached the queue first may commit before one that
// reserved a lower id), with the AutoBatchK re-encode applied as
// versions accumulate.
// Callers hold Store.mu and, when AutoBatchK can append, the drafts'
// write latches.
func (s *Store) buildDraftsLocked(drafts []*commitDraft) error {
	for _, d := range drafts {
		doc := d.st.metaClone()
		if len(doc.Versions) == 0 {
			doc.SparseRep, doc.Fill = d.rep.sparse, d.rep.fill
		}
		qc := newChunkCache()
		for _, p := range d.parts {
			for _, vm := range p.vms {
				i := len(doc.Versions)
				for i > 0 && doc.Versions[i-1].ID > vm.ID {
					i--
				}
				doc.Versions = slices.Insert(doc.Versions, i, vm)
				doc.NextID = max(doc.NextID, vm.ID+1)
				if err := s.batchReencodeStaged(d.st, &doc, d.ws, qc); err != nil {
					return err
				}
			}
		}
		d.doc = &doc
	}
	return nil
}

// commitDrafts is the commit point of a drained queue: it syncs the
// re-encode's appends, appends one record with one op per draft, and
// installs and publishes every draft under Store.mu. Callers hold the
// commit latch.
func (s *Store) commitDrafts(ok []*commitReq, drafts []*commitDraft) error {
	if len(drafts) == 0 {
		return nil
	}
	ops := make([]manifestOp, len(drafts))
	for i, d := range drafts {
		if err := d.ws.sync(s, filepath.Join(d.st.dir, chunksDirName(d.doc.Gen))); err != nil {
			// a failed data or chunks-dir fsync may have dropped
			// already-written pages: on-disk effect uncertain, contain
			// it by degrading the array before anyone writes behind it
			s.noteCommitFailure(d.st, err)
			return err
		}
		ops[i] = manifestOp{Name: d.st.Schema.Name, Meta: d.doc}
	}
	t0 := time.Now()
	err := s.man.commit(ops...)
	metaDur := time.Since(t0)
	if err != nil {
		if isUncertain(err) {
			// the append failed mid-write: the record may be durable
			// while memory rolls back
			for _, d := range drafts {
				s.noteCommitFailure(d.st, err)
			}
		} else {
			s.noteDiskPressure(err) // benign unless ENOSPC
		}
		return err
	}
	installStart := time.Now()
	installed := 0
	s.mu.Lock()
	for _, d := range drafts {
		d.st.mutateLocked()
		d.st.installMeta(*d.doc)
		for _, p := range d.parts {
			s.publishLocked(d.st, p.planes)
			installed += len(p.vms)
		}
	}
	s.addGroupCommit(installed)
	s.mu.Unlock()
	installDur := time.Since(installStart)
	s.prof.observeCommit(StageMetaCommit, metaDur, 0)
	s.prof.observeCommit(StageInstall, installDur, 0)
	s.prof.batchSize.Observe(float64(installed))
	for _, r := range ok {
		r.tr.Observe(StageMetaCommit, metaDur, 0)
		r.tr.Observe(StageInstall, installDur, 0)
	}
	return nil
}

// publishLocked writes a committed insert's staged dense chunks through
// to the LRU under the array's current epoch, so the next insert's delta
// base and a select of the newest version are cache hits instead of a
// chain walk from disk. Callers hold Store.mu exclusively and call it in
// the critical section that installed the versions, so no DeleteVersion,
// Reorganize or DeleteArray can slip between install and publish. Failed
// and retried inserts never get here; sparse inserts collect no planes
// (the payload belongs to the caller).
func (s *Store) publishLocked(st *arrayState, planes []chunkPlane) {
	name := st.Schema.Name
	epoch := s.epochs[name]
	for _, p := range planes {
		s.chunkCache.Put(cache.Key{Array: name, Epoch: epoch, Version: p.id, Attr: p.attr, Chunk: p.chunk}, p.d)
	}
}

// staleBase returns a delta base referenced by the staged part that is
// no longer live (0 if none). liveIDs includes versions of parts
// accepted earlier in the same commit.
func staleBase(ins *stagedInsert, liveIDs map[int]bool) int {
	for _, vm := range ins.vms {
		for _, chunks := range vm.Chunks {
			for _, e := range chunks {
				if e.Base >= 0 && !liveIDs[e.Base] {
					return e.Base
				}
			}
		}
		// within the batch, later members may base on earlier ones
		liveIDs[vm.ID] = true
	}
	return 0
}

// stageFirstVersionsLocked stages ps, in order, as the first versions
// of st — the array createArrayLocked is building, which no stager can
// reach before its record commits — into a copy of st's document, and
// makes their blobs durable. It returns the staged document and the
// dense chunks to publish once it commits. On error the blobs are
// left for the caller, which removes the whole array directory.
// Callers hold the commit latch and Store.mu.
func (s *Store) stageFirstVersionsLocked(st *arrayState, ps []Payload, kind string) (arrayMeta, []chunkPlane, error) {
	staged := st.metaClone()
	if len(ps) == 0 {
		return staged, nil, nil
	}
	v := s.viewOfMeta(st, &staged, staged.NextID)
	ws := newWriteSet()
	qc := newChunkCache()
	sparse, fill := staged.SparseRep, staged.Fill
	repFixed := false
	ctx := &insertCtx{st: st, v: v, ws: ws, qc: qc, dir: v.dir, format: staged.Format, sparse: sparse,
		keepPlanes: s.chunkCache != nil}
	for _, p := range ps {
		id := staged.NextID
		vm, err := s.stagePayload(ctx, p, id, kind, &repFixed, &sparse, &fill)
		if err != nil {
			return staged, nil, err
		}
		staged.Versions = append(staged.Versions, vm)
		staged.NextID = id + 1
		staged.SparseRep, staged.Fill = sparse, fill
		if err := s.batchReencodeStaged(st, &staged, ws, qc); err != nil {
			return staged, nil, err
		}
	}
	t0 := time.Now()
	if err := ws.sync(s, ctx.dir); err != nil {
		return staged, nil, err
	}
	s.prof.observeCommit(StageDataFsync, time.Since(t0), ws.totalBytes())
	return staged, ctx.planes, nil
}

// batchReencodeStaged implements §IV-E's batched update heuristic on a
// staged metadata document: once AutoBatchK versions have accumulated
// since the last batch boundary, the newest K versions are re-encoded
// together under the optimal layout computed over the batch alone.
// Earlier batches are left untouched. Committed versionMeta records are
// cloned before their chunk maps are replaced — published versions are
// shared with reader snapshots and must never be edited in place — and
// the clones are swapped into the staged slice, so nothing is visible
// until the caller's commit installs the document.
func (s *Store) batchReencodeStaged(st *arrayState, staged *arrayMeta, ws *writeSet, qc *chunkCache) error {
	k := s.opts.AutoBatchK
	if k <= 1 {
		return nil
	}
	var live []*versionMeta
	for _, vm := range staged.Versions {
		if !vm.Deleted {
			live = append(live, vm)
		}
	}
	if len(live) == 0 || len(live)%k != 0 {
		return nil
	}
	batch := live[len(live)-k:]
	// a bulk load of the whole batch, and on the group-commit path the
	// staged members need not sit above every committed id, so no
	// single stagedFrom bound separates them: bypass the LRU entirely
	v := s.viewOfMeta(st, staged, 0)
	v.noCache = true
	ictx := &insertCtx{st: st, v: v, ws: ws, qc: qc, dir: v.dir, format: staged.Format, sparse: staged.SparseRep}
	// load batch contents; re-encodes only ever append (chain files grow
	// at the tail, per-version files get fresh FileSeq names), so
	// in-flight lock-free readers keep decoding the byte ranges their
	// snapshots reference
	full := array.BoxOf(st.Schema.Shape())
	planes := make([][]Plane, k)
	for i, vm := range batch {
		planes[i] = make([]Plane, len(st.Schema.Attrs))
		for ai, attr := range st.Schema.Attrs {
			pl, err := s.readRegionView(ictx.context(), v, vm.ID, attr.Name, full, qc, nil)
			if err != nil {
				return err
			}
			planes[i][ai] = pl
		}
	}
	mm, err := s.buildMatrix(staged.SparseRep, len(st.Schema.Attrs), planes, s.opts.EstimateSample)
	if err != nil {
		return err
	}
	l := layout.Optimal(mm)
	// re-encode every batch member per the layout; bases stay inside the
	// batch, keeping batches separate as §IV-E prescribes
	for i, vm := range batch {
		base := 0
		if p := l.Parent[i]; p != i {
			base = batch[p].ID
		}
		cp := *vm
		cp.Chunks = make(map[string]map[string]chunkEntry, len(vm.Chunks))
		for attr, m := range vm.Chunks {
			cp.Chunks[attr] = m
		}
		for ai, attr := range st.Schema.Attrs {
			entries, err := s.encodePlane(ictx, vm.ID, attr, planes[i][ai], base)
			if err != nil {
				return err
			}
			cp.Chunks[attr.Name] = entries
		}
		for si, svm := range staged.Versions {
			if svm == vm {
				staged.Versions[si] = &cp
				break
			}
		}
		v.byID[vm.ID] = &cp
	}
	return nil
}

func repName(sparse bool) string {
	if sparse {
		return "sparse"
	}
	return "dense"
}

// resolvePayload expands the three payload forms into full per-attribute
// planes and the implied lineage parents, resolving content through the
// staging context's metadata view (which includes earlier members of
// the same batch).
func (s *Store) resolvePayload(ctx *insertCtx, p Payload) ([]Plane, []int, error) {
	st, v := ctx.st, ctx.v
	var parents []int
	if last := lastLiveIDView(v); last > 0 {
		parents = append(parents, last)
	}
	if p.DeltaBase > 0 {
		// delta-list form: inherit the base version and apply updates
		if _, err := v.version(p.DeltaBase); err != nil {
			return nil, nil, err
		}
		full := array.BoxOf(st.Schema.Shape())
		planes := make([]Plane, len(st.Schema.Attrs))
		for ai, attr := range st.Schema.Attrs {
			pl, err := s.readRegionView(ctx.context(), v, p.DeltaBase, attr.Name, full, ctx.qc, nil)
			if err != nil {
				return nil, nil, err
			}
			if pl.Sparse != nil {
				// the stage-wide chunk memo shares decoded sparse planes
				// across reads; the updates below must not corrupt it
				pl.Sparse = pl.Sparse.Clone()
			}
			planes[ai] = pl
		}
		for _, u := range p.Updates {
			ai := 0
			if u.Attr != "" {
				ai = st.Schema.AttrIndex(u.Attr)
				if ai < 0 {
					return nil, nil, fmt.Errorf("core: delta-list update names unknown attribute %q", u.Attr)
				}
			}
			if len(u.Coords) != len(st.Schema.Dims) {
				return nil, nil, fmt.Errorf("core: delta-list update has %d coords, schema has %d dims", len(u.Coords), len(st.Schema.Dims))
			}
			if planes[ai].IsSparse() {
				flat := flatIndex(st.Schema.Shape(), u.Coords)
				planes[ai].Sparse.SetBits(flat, u.Bits)
			} else {
				planes[ai].Dense.SetBitsAt(u.Coords, u.Bits)
			}
		}
		return planes, []int{p.DeltaBase}, nil
	}
	if len(p.Planes) != len(st.Schema.Attrs) {
		return nil, nil, fmt.Errorf("core: payload has %d planes, schema has %d attributes", len(p.Planes), len(st.Schema.Attrs))
	}
	for ai, attr := range st.Schema.Attrs {
		if err := p.Planes[ai].validate(st.Schema, attr); err != nil {
			return nil, nil, err
		}
	}
	return p.Planes, parents, nil
}

func flatIndex(shape, coords []int64) int64 {
	idx := int64(0)
	for i, c := range coords {
		idx = idx*shape[i] + c
	}
	return idx
}

// lastLiveIDView returns the highest live version id visible through
// the view (including staged batch members), or 0.
func lastLiveIDView(v *readView) int {
	best := 0
	for _, id := range v.ids {
		if id > best {
			best = id
		}
	}
	return best
}

func dedupInts(in []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range in {
		if v > 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// chooseDeltaBase picks the version the new content should be delta'ed
// against, comparing the estimated delta size against the newest
// DeltaCandidates versions with the materialized size ("the payload is
// analyzed so it can be encoded as a delta off of an existing version",
// §II-A). Candidates come from the staging view, so later members of a
// batch can delta against earlier ones. Returns 0 to materialize.
func (s *Store) chooseDeltaBase(ctx *insertCtx, planes []Plane) int {
	v := ctx.v
	if !s.opts.AutoDelta || len(v.ids) == 0 {
		return 0
	}
	k := s.opts.DeltaCandidates
	if k > len(v.ids) {
		k = len(v.ids)
	}
	pl := planes[0]
	var matSize int64
	if pl.IsSparse() {
		matSize = delta.SparseMaterializedSize(pl.Sparse)
	} else {
		matSize = delta.MaterializedSize(pl.Dense)
	}
	attr0 := ctx.st.Schema.Attrs[0].Name
	full := array.BoxOf(ctx.st.Schema.Shape())
	bestBase, bestSize := 0, matSize
	for i := len(v.ids) - k; i < len(v.ids); i++ {
		cand := v.ids[i]
		basePl, err := s.readRegionView(ctx.context(), v, cand, attr0, full, ctx.qc, nil)
		if err != nil {
			continue
		}
		var size int64
		if pl.IsSparse() {
			blob, err := delta.EncodeSparseOps(pl.Sparse, basePl.Sparse)
			if err != nil {
				continue
			}
			size = int64(len(blob))
		} else {
			size = delta.EstimateSize(pl.Dense, basePl.Dense, s.opts.EstimateSample, int64(cand))
		}
		if size < bestSize {
			bestBase, bestSize = cand, size
		}
	}
	return bestBase
}

// encodePlane chunks one attribute's content and writes every chunk,
// delta-encoding against the corresponding chunk of the base version when
// that is smaller ("disk space usage is calculated by trying both methods
// and choosing the more economical one", §III-B.3).
func (s *Store) encodePlane(ctx *insertCtx, id int, attr array.Attribute, pl Plane, base int) (map[string]chunkEntry, error) {
	st := ctx.st
	entries := make(map[string]chunkEntry)
	if ctx.sparse {
		// sparse versions are stored as a single container (their entire
		// coordinate list); chunk-level subdivision buys nothing when the
		// data is this sparse.
		key := "chunk-full"
		payload, entryBase, err := s.encodeSparseChunk(ctx, attr.Name, pl.Sparse, base)
		if err != nil {
			return nil, err
		}
		codec := pickCodec(s.opts.Codec, false)
		sealed, used, err := seal(codec, s.opts.AdaptiveCodec, payload, compress.Params{Elem: 1})
		if err != nil {
			return nil, err
		}
		file, off, err := s.writeBlob(ctx, id, attr.Name, key, sealed)
		if err != nil {
			return nil, err
		}
		entries[key] = chunkEntry{File: file, Offset: off, Length: int64(len(sealed)), Codec: uint8(used), Base: entryBase}
		return entries, nil
	}
	ck, err := st.chunker()
	if err != nil {
		return nil, err
	}
	// Fan the per-chunk encode+compress+write out on the worker pool.
	// Chunks are independent: each worker appends to its own chunk's
	// chain file (or writes its own per-version file), so the only shared
	// state is the stage-wide chunk memo and the I/O counters, both
	// internally locked. The metadata view is private to the staging
	// mutation and frozen for the duration of the fan-out.
	v := ctx.v
	origins := ck.All()
	results := make([]chunkEntry, len(origins))
	targets := make([]*array.Dense, len(origins))
	keys := make([]string, len(origins))
	for i, origin := range origins {
		keys[i] = ck.Key(origin)
	}
	ctx.qc.ensure(keys)
	err = forEachLimit(ctx.context(), len(origins), s.opts.Parallelism, func(i int) error {
		origin := origins[i]
		box := ck.Box(origin)
		key := keys[i]
		// Slice copies: target is private to this staging, so it can be
		// published write-through without aliasing the caller's plane
		target, err := pl.Dense.Slice(box)
		if err != nil {
			return err
		}
		targets[i] = target
		payload := target.Bytes()
		entryBase := -1
		rawDense := true
		if base > 0 {
			baseChunk, err := s.resolveDenseChunk(v, base, attr.Name, ck, origin, ctx.qc.chunk(key), nil)
			if err != nil {
				return err
			}
			blob, err := delta.Encode(s.opts.DeltaMethod, target, baseChunk)
			if err != nil {
				return err
			}
			if len(blob) < len(payload) {
				payload = blob
				entryBase = base
				rawDense = false
			}
		}
		codec := pickCodec(s.opts.Codec, rawDense)
		sealed, used, err := seal(codec, s.opts.AdaptiveCodec, payload, sealParams(rawDense, box, attr.Type))
		if err != nil {
			return err
		}
		file, off, err := s.writeBlob(ctx, id, attr.Name, key, sealed)
		if err != nil {
			return err
		}
		results[i] = chunkEntry{File: file, Offset: off, Length: int64(len(sealed)), Codec: uint8(used), Base: entryBase}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, key := range keys {
		entries[key] = results[i]
		if ctx.keepPlanes {
			ctx.planes = append(ctx.planes, chunkPlane{id: id, attr: attr.Name, chunk: key, d: targets[i]})
		}
	}
	return entries, nil
}

// encodeSparseChunk encodes a sparse version either natively or as
// sparse-ops against the base, whichever is smaller.
func (s *Store) encodeSparseChunk(ctx *insertCtx, attr string, sp *array.Sparse, base int) ([]byte, int, error) {
	native := array.MarshalSparse(sp)
	if base <= 0 {
		return native, -1, nil
	}
	full := array.BoxOf(ctx.st.Schema.Shape())
	basePl, err := s.readRegionView(ctx.context(), ctx.v, base, attr, full, ctx.qc, nil)
	if err != nil {
		return nil, 0, err
	}
	blob, err := delta.EncodeSparseOps(sp, basePl.Sparse)
	if err != nil {
		return nil, 0, err
	}
	if len(blob) < len(native) {
		return blob, base, nil
	}
	return native, -1, nil
}

// Branch creates a new named array whose first version is a copy of the
// given version of an existing array (§II-A: "Branch operates identically
// to Insert except that a new named version is created"; Appendix A:
// "branches are formed off of a particular version of an existing array
// ... they create a new array with a new name").
func (s *Store) Branch(srcName string, srcVersion int, newName string) error {
	if err := s.writeGate(newName); err != nil {
		return err
	}
	s.man.mu.Lock()
	defer s.man.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	st, ok := s.arrays[srcName]
	if !ok {
		return fmt.Errorf("core: no array %q", srcName)
	}
	p, err := s.versionPayloadLocked(st, srcVersion)
	if err != nil {
		return err
	}
	schema := st.Schema
	schema.Name = newName
	return s.createArrayLocked(schema, &BranchRef{Array: srcName, Version: srcVersion}, []Payload{p}, "branch")
}

// versionPayloadLocked reads every attribute of a committed version as
// a full-plane payload. Callers hold Store.mu.
func (s *Store) versionPayloadLocked(st *arrayState, id int) (Payload, error) {
	if _, err := st.version(id); err != nil {
		return Payload{}, err
	}
	planes := make([]Plane, len(st.Schema.Attrs))
	for ai, attr := range st.Schema.Attrs {
		pl, err := s.readPlaneLocked(st, id, attr.Name)
		if err != nil {
			return Payload{}, err
		}
		planes[ai] = pl
	}
	return Payload{Planes: planes}, nil
}

// BranchedFrom returns the provenance of a branched array, or nil.
func (s *Store) BranchedFrom(name string) (*BranchRef, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.arrays[name]
	if !ok {
		return nil, fmt.Errorf("core: no array %q", name)
	}
	return st.BranchedFrom, nil
}

// VersionRef addresses a version of a named array.
type VersionRef struct {
	Array   string
	Version int
}

// Merge is the inverse of Branch (§II-A): it combines two or more parent
// versions into a new array whose version sequence is the parents in
// order. It does not combine data from two arrays into one array; the
// result's history records all parents, making the version hierarchy a
// graph rather than a tree.
func (s *Store) Merge(newName string, parents []VersionRef) error {
	if err := s.writeGate(newName); err != nil {
		return err
	}
	s.man.mu.Lock()
	defer s.man.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(parents) < 2 {
		return fmt.Errorf("core: merge requires at least two parent versions")
	}
	first, ok := s.arrays[parents[0].Array]
	if !ok {
		return fmt.Errorf("core: no array %q", parents[0].Array)
	}
	schema := first.Schema
	schema.Name = newName
	for _, p := range parents[1:] {
		st, ok := s.arrays[p.Array]
		if !ok {
			return fmt.Errorf("core: no array %q", p.Array)
		}
		if err := checkShape(schema, st.Schema.Shape()); err != nil {
			return fmt.Errorf("core: merge parents have incompatible shapes: %w", err)
		}
		if len(st.Schema.Attrs) != len(schema.Attrs) {
			return fmt.Errorf("core: merge parents have different attribute counts")
		}
		for i := range schema.Attrs {
			if st.Schema.Attrs[i].Type != schema.Attrs[i].Type {
				return fmt.Errorf("core: merge parents disagree on attribute %d type", i)
			}
		}
	}
	ps := make([]Payload, len(parents))
	for i, p := range parents {
		var err error
		if ps[i], err = s.versionPayloadLocked(s.arrays[p.Array], p.Version); err != nil {
			return err
		}
	}
	return s.createArrayLocked(schema, nil, ps, "merge")
}
