package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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
// An insert runs in two phases. *Staging* resolves the payload, picks a
// delta base, and encodes every chunk — appending blobs to the chunk
// files — against a cloned metadata snapshot, holding only the array's
// writeMu (which serializes appenders on one array) and its shared I/O
// latch (which pins the chunk generation); Store.mu is held just long
// enough to take the snapshot, so inserts to different arrays encode
// and fsync concurrently, and never stall readers. *Commit* installs
// the staged versions: a group-commit leader drains every staged insert
// pending on the array, makes their payloads durable with one fsync per
// touched file plus one chunks-dir fsync shared by the whole batch,
// validates each against the live state (generation unchanged, delta
// bases still live), and publishes them all with a single metadata
// commit — one record appended to the store-wide manifest log
// (commitMeta).
//
// Nothing is installed into the live arrayState until that commit
// succeeds: mutators build a staged arrayMeta and install it only after
// commitMeta returns, so a failed commit leaves in-memory metadata
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
// internal paths (fallback commit, Branch, Merge) that stage without
// one. Cancellation is only honored during staging — a payload that
// reached the shared commit queue always runs to completion, so a
// group-commit leader never aborts followers' work.
func (c *insertCtx) context() context.Context {
	if c.goCtx != nil {
		return c.goCtx
	}
	return context.Background() //avlint:allow-ctx the designated fallback for internal non-cancellable staging (fallback commit, Branch, Merge); every cancellable path sets goCtx
}

// writeSet tracks the chunk-file byte ranges appended by one staged
// mutation, for the two jobs that follow staging: fsyncing each touched
// file exactly once at the shared commit point, and reclaiming the
// bytes if the mutation fails before committing.
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
func (w *writeSet) sortedPaths() []string {
	paths := make([]string, 0, len(w.files))
	for p := range w.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
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

// sync fsyncs every file in the set — the data-durability step of the
// shared commit. Callers sync the chunks directory afterwards.
func (w *writeSet) sync(s *Store) error {
	for _, path := range w.sortedPaths() {
		if err := s.syncFile(path); err != nil {
			return err
		}
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

// stagedInsert is one insert (a whole InsertBatch call) staged on an
// array, awaiting its shared commit.
type stagedInsert struct {
	vms    []*versionMeta // staged versions with reserved ids, in order
	sparse bool           // representation the payloads were encoded with
	fill   int64
	gen    int // chunk generation the blobs were appended into
	format int
	ws     *writeSet
	// planes are the staged dense chunks, published write-through to
	// the LRU only if the commit installs them
	planes []chunkPlane

	// tr is the staging request's trace (nil when untraced); the
	// group-commit leader attributes the shared commit stages to it, so
	// a traced insert sees the fsync/commit wait it actually rode.
	tr *trace.Trace
	// enqueuedAt marks when the insert entered the pending queue; zeroed
	// once its queue_wait has been observed (re-drain rounds and the
	// DisableGroupCommit requeue must not double-count).
	enqueuedAt time.Time

	// outcome, final once done is closed
	done  chan struct{}
	ids   []int
	err   error
	retry bool // staging was invalidated (generation moved / base died)
}

func (ins *stagedInsert) fail(err error) {
	if ins.err == nil && !ins.retry {
		ins.err = err
	}
}

// insertRetries bounds the optimistic stage attempts before an insert
// falls back to committing under the store lock (guaranteed progress
// when the array is rewritten faster than staging can revalidate).
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
// Concurrent durable inserts to the same array coalesce: whichever
// insert reaches the commit point first becomes the group-commit leader
// and publishes every insert staged behind it with one fsync schedule
// and one metadata commit, so ingest throughput scales past the
// single-commit fsync latency (see DESIGN.md "Write path & group
// commit").
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
	for attempt := 0; attempt < insertRetries; attempt++ {
		ids, retry, err := s.tryInsertBatch(ctx, name, ps)
		if !retry {
			return ids, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.insertBatchFallback(name, ps)
}

// lockArray resolves an array and acquires the latches pick selects —
// which MUST be returned in the documented latch order (syncMu <
// commitMu < writeMu) — then re-verifies the array was not dropped or
// replaced while waiting, retrying if it was. The caller releases the
// latches in reverse order. Latches are always acquired without
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

// lockMetaWrite is lockWrite plus the metadata writer latch
// (commitMu), for mutators outside the insert pipeline that both
// append to chunk files and rewrite the metadata (DeleteVersion). The
// caller releases st.writeMu then st.commitMu.
func (s *Store) lockMetaWrite(name string) (*arrayState, error) {
	return s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.commitMu, &st.writeMu}
	})
}

// tryInsertBatch performs one optimistic stage + commit attempt.
// retry=true means the staged encoding was invalidated by a concurrent
// rewrite or delete and the caller should re-stage.
func (s *Store) tryInsertBatch(ctx context.Context, name string, ps []Payload) (ids []int, retry bool, err error) {
	st, err := s.lockWrite(name)
	if err != nil {
		return nil, false, err
	}
	ins, err := s.stageBatch(ctx, st, ps, "insert")
	if err != nil {
		st.writeMu.Unlock()
		return nil, false, err
	}
	ins.enqueuedAt = time.Now()
	st.pendMu.Lock()
	st.pending = append(st.pending, ins)
	st.pendMu.Unlock()
	st.writeMu.Unlock()
	s.awaitCommit(st, ins)
	if ins.retry || ins.err != nil {
		// reclaim the staged blobs; under the write latch so the size
		// checks cannot race another stager's appends
		st.writeMu.Lock()
		ins.ws.sweep(s)
		// reclaim the reserved ids too when they are still the top of
		// the reservation space (no later stage reserved past us), so a
		// retried or failed insert does not leave a version-id gap
		st.pendMu.Lock()
		if st.stageNext == ins.vms[len(ins.vms)-1].ID+1 {
			st.stageNext = ins.vms[0].ID
		}
		st.pendMu.Unlock()
		st.writeMu.Unlock()
		return nil, ins.retry, ins.err
	}
	return ins.ids, false, nil
}

// stageBatch resolves and encodes a batch of payloads against a private
// metadata snapshot, appending chunk blobs (unsynced) to the pinned
// generation. On success the returned stagedInsert is ready to enqueue;
// on error every appended blob has been reclaimed and the reserved ids
// returned to the pool. Callers hold st.writeMu.
func (s *Store) stageBatch(ctx context.Context, st *arrayState, ps []Payload, kind string) (*stagedInsert, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// snapshot under the store lock: metadata view, generation pin (the
	// I/O read latch is acquired before the lock drops, so a rewrite
	// cannot remove the generation out from under the appends), id
	// reservation, and the staged-but-uncommitted representation.
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
	repFixed := len(st.Versions) > 0
	sparse, fill := st.SparseRep, st.Fill
	st.pendMu.Lock()
	// stageNext only moves forward past the committed NextID: an empty
	// pending queue does NOT mean no outstanding reservations — a leader
	// drains the queue before its commit installs, so resetting here
	// could hand two inserts the same id. Ids lost to commit-time
	// failures stay gaps (never reused); stage-time failures roll their
	// reservation back below.
	if st.stageNext < st.NextID {
		st.stageNext = st.NextID
	}
	baseID := st.stageNext
	st.stageNext += len(ps)
	v.stagedFrom = baseID
	if !repFixed && len(st.pending) > 0 {
		// an uncommitted first insert already fixed the representation;
		// encode consistently with it (the commit re-validates)
		last := st.pending[len(st.pending)-1]
		repFixed, sparse, fill = true, last.sparse, last.fill
	}
	st.pendMu.Unlock()
	st.ioMu.RLock()
	gen, format := st.Gen, st.Format
	s.mu.RUnlock()
	defer st.ioMu.RUnlock()

	unreserve := func() {
		st.pendMu.Lock()
		if st.stageNext == baseID+len(ps) {
			st.stageNext = baseID
		}
		st.pendMu.Unlock()
	}
	ins := &stagedInsert{
		gen:    gen,
		format: format,
		ws:     newWriteSet(),
		tr:     trace.FromContext(ctx),
		done:   make(chan struct{}),
	}
	ictx := &insertCtx{st: st, v: v, ws: ins.ws, qc: newChunkCache(), dir: v.dir, format: format, sparse: sparse, goCtx: ctx,
		keepPlanes: s.chunkCache != nil}
	fail := func(err error) (*stagedInsert, error) {
		ins.ws.sweep(s)
		unreserve()
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
	ins.tr.Observe(StageStageEncode, encDur, ins.ws.totalBytes())
	ins.sparse, ins.fill = sparse, fill
	ins.planes = ictx.planes
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

// awaitCommit blocks until mine's outcome is final. Whichever staged
// insert acquires the sync-stage latch first becomes a leader: it
// drains every insert pending on the array, makes their payloads
// durable, and publishes them all with one metadata commit. The two
// commit stages are pipelined — a leader acquires the metadata latch
// before releasing the sync latch (preserving drain order), so the
// next leader's fsync schedule overlaps this leader's metadata
// commit. Inserts staged while a commit is in flight ride the next
// leader (or a re-drain round of the current one) — the commit window
// is the duration of the commit in front, no timers involved.
func (s *Store) awaitCommit(st *arrayState, mine *stagedInsert) {
	for {
		select {
		case <-mine.done:
			return
		default:
		}
		st.syncMu.Lock()
		select {
		case <-mine.done:
			st.syncMu.Unlock()
			return
		default:
		}
		// mine is not done, therefore still pending: the drain below
		// includes it, and every drained insert is finalized before the
		// latches are released
		batch := st.drainPending()
		if s.opts.DisableGroupCommit && len(batch) > 1 {
			// per-insert-commit baseline: commit the head alone, requeue
			// the rest in order
			st.pendMu.Lock()
			st.pending = append(append([]*stagedInsert(nil), batch[1:]...), st.pending...)
			st.pendMu.Unlock()
			batch = batch[:1]
		}
		// Sync stage: fsync the batch, then keep draining inserts that
		// staged while those fsyncs ran (bounded rounds, so a steady
		// stager stream cannot starve the commit) — coalescing deepens
		// to the natural arrival rate without any timer.
		s.syncStagedBatch(st, batch)
		if !s.opts.DisableGroupCommit {
			for round := 0; round < 5; round++ {
				more := st.drainPending()
				if len(more) == 0 {
					break
				}
				s.syncStagedBatch(st, more)
				batch = append(batch, more...)
			}
		}
		// stage handoff: commitMu before syncMu releases, so batches
		// install in drain order while the next leader starts syncing
		st.commitMu.Lock()
		st.syncMu.Unlock()
		s.finalizeBatch(st, batch, false)
		st.commitMu.Unlock()
	}
}

func (st *arrayState) drainPending() []*stagedInsert {
	st.pendMu.Lock()
	batch := st.pending
	st.pending = nil
	st.pendMu.Unlock()
	return batch
}

// finalizeBatch is the metadata stage of the group commit: validate
// every synced staged insert against the live state, commit the staged
// document with a single metadata commit (a manifest-log record), and
// install it. The
// commit runs with Store.mu RELEASED — commitMu (held by the caller)
// is the metadata writer latch, serializing it against every
// other metadata writer on the array — so concurrent selects and the
// next leader's staging never stall behind the commit's fsyncs. Every
// insert in the batch has its outcome finalized (done closed) before
// it returns. latched reports that the caller already holds st.writeMu
// (the under-lock fallback) — otherwise it is taken only when the
// AutoBatchK re-encode could append.
func (s *Store) finalizeBatch(st *arrayState, batch []*stagedInsert, latched bool) {
	if len(batch) == 0 {
		return
	}
	if s.opts.AutoBatchK > 1 && !latched {
		// the batched-update re-encode appends to chunk files; appends
		// require the write latch (see writeSet.sweep and appendBlob)
		st.writeMu.Lock()
		defer st.writeMu.Unlock()
	}
	s.mu.Lock()
	if s.closed || s.arrays[st.Schema.Name] != st {
		err := error(ErrClosed)
		if !s.closed {
			err = fmt.Errorf("core: no array %q", st.Schema.Name)
		}
		s.mu.Unlock()
		for _, ins := range batch {
			ins.retry = false
			ins.fail(err)
		}
		for _, ins := range batch {
			close(ins.done)
		}
		return
	}
	ok, staged, ws, installed := s.validateBatchLocked(st, batch)
	s.mu.Unlock()
	if len(ok) > 0 {
		var commitErr error
		if s.opts.Durability && !ws.empty() {
			// the AutoBatchK re-encode appended fresh blobs; they must be
			// durable before the metadata that references them
			commitErr = ws.sync(s)
			if commitErr == nil && ws.createdFiles() {
				commitErr = s.fs.SyncDir(filepath.Join(st.dir, chunksDirName(staged.Gen)))
			}
		}
		if commitErr != nil {
			// a failed data or chunks-dir fsync may have dropped
			// already-written pages: on-disk effect uncertain, contain
			// it by degrading the array before anyone writes behind it
			s.noteCommitFailure(st, commitErr)
		}
		if commitErr == nil {
			t0 := time.Now()
			commitErr = s.commitMeta(st, staged)
			metaDur := time.Since(t0)
			s.prof.observeCommit(StageMetaCommit, metaDur, 0)
			for _, ins := range ok {
				ins.tr.Observe(StageMetaCommit, metaDur, 0)
			}
			if isUncertain(commitErr) {
				// the manifest append failed mid-write: the record may
				// be durable while memory rolls back
				s.noteCommitFailure(st, commitErr)
			} else {
				s.noteDiskPressure(commitErr) // benign unless ENOSPC
			}
		}
		installStart := time.Now()
		s.mu.Lock()
		if commitErr == nil && s.arrays[st.Schema.Name] != st {
			// DeleteArray won the race after our record landed: the
			// array is gone and the inserts with it
			commitErr = fmt.Errorf("core: no array %q", st.Schema.Name)
		}
		if commitErr == nil {
			st.mutateLocked()
			st.installMeta(*staged)
			s.addGroupCommit(installed)
			for _, ins := range ok {
				ids := make([]int, len(ins.vms))
				for i, vm := range ins.vms {
					ids[i] = vm.ID
				}
				ins.ids = ids
				s.publishLocked(st, ins.planes)
			}
		}
		s.mu.Unlock()
		if commitErr == nil {
			installDur := time.Since(installStart)
			s.prof.observeCommit(StageInstall, installDur, 0)
			s.prof.batchSize.Observe(float64(installed))
			for _, ins := range ok {
				ins.tr.Observe(StageInstall, installDur, 0)
			}
		}
		if commitErr != nil {
			// the commit did not land: in-memory state is untouched, so
			// the staged versions never existed — the stagers sweep their
			// blobs, the re-encode's are swept here (writeMu is held
			// whenever ws is non-empty)
			ws.sweep(s)
			for _, ins := range ok {
				ins.fail(commitErr)
			}
		}
	}
	for _, ins := range batch {
		close(ins.done)
	}
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

// syncStagedBatch makes one round of staged inserts durable. The
// batch's write-sets are merged first, so a chunk file every member
// appended to (the common co-located case: one chain file per chunk)
// is fsynced ONCE for the whole batch — this sharing is where group
// commit's throughput comes from — then each touched chunks directory
// is fsynced once. A missing file means a rewrite swept the generation
// mid-stage: every insert that touched it is marked for re-stage
// rather than failed. No-op without Durability.
func (s *Store) syncStagedBatch(st *arrayState, batch []*stagedInsert) {
	// the leader has picked the batch up: close out each member's
	// queue_wait exactly once (re-drain rounds and the per-insert-commit
	// requeue see a zeroed mark)
	now := time.Now()
	for _, ins := range batch {
		if ins.enqueuedAt.IsZero() {
			continue
		}
		wait := now.Sub(ins.enqueuedAt)
		ins.enqueuedAt = time.Time{}
		s.prof.observeCommit(StageQueueWait, wait, 0)
		ins.tr.Observe(StageQueueWait, wait, 0)
	}
	if !s.opts.Durability {
		return
	}
	fsyncStart := time.Now()
	defer func() {
		d := time.Since(fsyncStart)
		var total int64
		for _, ins := range batch {
			b := ins.ws.totalBytes()
			total += b
			// the whole shared fsync schedule is each member's wait
			ins.tr.Observe(StageDataFsync, d, b)
		}
		s.prof.observeCommit(StageDataFsync, d, total)
	}()
	byPath := map[string][]*stagedInsert{}
	dirs := map[string]bool{}
	for _, ins := range batch {
		if ins.err != nil || ins.retry {
			continue
		}
		for path := range ins.ws.files {
			byPath[path] = append(byPath[path], ins)
		}
		if ins.ws.createdFiles() {
			dirs[filepath.Join(st.dir, chunksDirName(ins.gen))] = true
		}
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths) // deterministic step order for the crash matrix
	for _, path := range paths {
		touchers := byPath[path]
		alive := false
		for _, ins := range touchers {
			if ins.err == nil && !ins.retry {
				alive = true
				break
			}
		}
		if !alive {
			continue
		}
		if err := s.syncFile(path); err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				// a failed data fsync may have dropped already-written
				// pages; the on-disk effect is uncertain
				s.noteCommitFailure(st, err)
			}
			for _, ins := range touchers {
				if errors.Is(err, fs.ErrNotExist) {
					ins.retry = true
				} else {
					ins.fail(err)
				}
			}
		}
	}
	dirNames := make([]string, 0, len(dirs))
	for d := range dirs {
		dirNames = append(dirNames, d)
	}
	sort.Strings(dirNames)
	for _, d := range dirNames {
		if err := s.fs.SyncDir(d); err != nil {
			s.noteCommitFailure(st, err)
			for _, ins := range batch {
				ins.fail(err)
			}
		}
	}
}

// validateBatchLocked validates each staged insert against the live
// state and builds the staged metadata document installing every
// survivor (marked in ok); the caller commits the document off-lock
// and installs it. ws collects AutoBatchK re-encode appends that still
// need fsyncing before the commit. Callers hold Store.mu (and writeMu
// when AutoBatchK can append).
func (s *Store) validateBatchLocked(st *arrayState, batch []*stagedInsert) (ok []*stagedInsert, staged *arrayMeta, ws *writeSet, installed int) {
	liveIDs := make(map[int]bool)
	for _, vm := range st.live() {
		liveIDs[vm.ID] = true
	}
	for _, ins := range batch {
		if ins.err != nil || ins.retry {
			continue
		}
		if ins.gen != st.Gen || ins.format != st.Format {
			// a rewrite committed a new generation: the staged blobs live
			// in the superseded directory and die with it
			ins.retry = true
			continue
		}
		repSparse, repFill := st.SparseRep, st.Fill
		repOpen := len(st.Versions) == 0
		if repOpen && len(ok) > 0 {
			repSparse, repFill, repOpen = ok[0].sparse, ok[0].fill, false
		}
		if !repOpen && (ins.sparse != repSparse || (ins.sparse && ins.fill != repFill)) {
			ins.fail(fmt.Errorf("core: array %q uses the %s representation; staged payload does not",
				st.Schema.Name, repName(repSparse)))
			continue
		}
		if stale := staleBase(ins, liveIDs); stale != 0 {
			// a delta base was deleted between stage and commit
			ins.retry = true
			continue
		}
		for _, vm := range ins.vms {
			liveIDs[vm.ID] = true
		}
		ok = append(ok, ins)
	}
	if len(ok) == 0 {
		return nil, nil, nil, 0
	}
	doc := st.metaClone()
	staged = &doc
	if len(staged.Versions) == 0 {
		staged.SparseRep, staged.Fill = ok[0].sparse, ok[0].fill
	}
	ws = newWriteSet()
	qc := newChunkCache()
	for _, ins := range ok {
		for _, vm := range ins.vms {
			staged.Versions = append(staged.Versions, vm)
			if vm.ID >= staged.NextID {
				staged.NextID = vm.ID + 1
			}
			installed++
			if err := s.batchReencodeStaged(st, staged, ws, qc); err != nil {
				// a re-encode failure fails the whole batch: the document
				// already interleaves its members
				for _, ins := range ok {
					ins.fail(err)
				}
				ws.sweep(s)
				return nil, nil, nil, 0
			}
		}
	}
	return ok, staged, ws, installed
}

// staleBase returns a delta base referenced by the staged insert that
// is no longer live (0 if none). liveIDs includes versions installed
// earlier in the same batch.
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

// insertBatchFallback is the contended path: after insertRetries
// invalidated stagings, commit under the store lock, where generations
// cannot move. It acquires both commit-stage latches (so no leader is
// mid-pipeline and every drained batch has installed) plus the write
// latch (so no new staging can reserve ids), then drains and commits
// any straggler pending inserts before committing its own batch under
// Store.mu.
func (s *Store) insertBatchFallback(name string, ps []Payload) ([]int, error) {
	st, err := s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.syncMu, &st.commitMu, &st.writeMu}
	})
	if err != nil {
		return nil, err
	}
	defer st.syncMu.Unlock()
	defer st.commitMu.Unlock()
	defer st.writeMu.Unlock()
	if batch := st.drainPending(); len(batch) > 0 {
		s.syncStagedBatch(st, batch)
		s.finalizeBatch(st, batch, true)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.arrays[name] != st {
		return nil, fmt.Errorf("core: no array %q", name)
	}
	return s.insertBatchLocked(st, ps, "insert")
}

// insertBatchLocked stages and commits a batch while holding Store.mu
// exclusively — the fallback for contended inserts (which additionally
// holds the write and commit latches) and the path Branch and Merge
// use on their freshly created arrays (which no concurrent stager can
// reach: the array becomes visible only when the caller releases
// Store.mu). Like the optimistic path, nothing is installed into the
// live state until the metadata commit succeeds.
func (s *Store) insertBatchLocked(st *arrayState, ps []Payload, kind string) ([]int, error) {
	sb, err := s.stageBatchLocked(st, ps, kind)
	if err != nil {
		return nil, err
	}
	fail := func(err error) ([]int, error) {
		// safe without further locking: callers either hold writeMu or
		// own the array exclusively (see above)
		sb.ws.sweep(s)
		s.noteDiskPressure(err)
		return nil, err
	}
	if s.opts.Durability {
		t0 := time.Now()
		if err := sb.ws.sync(s); err != nil {
			s.noteCommitFailure(st, err)
			return fail(err)
		}
		if sb.ws.createdFiles() {
			if err := s.fs.SyncDir(sb.dir); err != nil {
				s.noteCommitFailure(st, err)
				return fail(err)
			}
		}
		s.prof.observeCommit(StageDataFsync, time.Since(t0), sb.ws.totalBytes())
	}
	t0 := time.Now()
	if err := s.commitMeta(st, sb.staged); err != nil {
		if isUncertain(err) {
			s.noteCommitFailure(st, err)
		}
		return fail(err)
	}
	s.prof.observeCommit(StageMetaCommit, time.Since(t0), 0)
	st.mutateLocked()
	st.installMeta(*sb.staged)
	s.publishLocked(st, sb.planes)
	s.addGroupCommit(len(sb.ids))
	s.prof.batchSize.Observe(float64(len(sb.ids)))
	return sb.ids, nil
}

// stagedBatch is one array's staged-but-uncommitted insert batch: the
// cloned metadata document holding the new versions, the write-set of
// chunk blobs backing them, the reserved ids, and the directory whose
// entries must be synced before the commit.
type stagedBatch struct {
	st     *arrayState
	staged *arrayMeta
	ws     *writeSet
	ids    []int
	dir    string
	planes []chunkPlane // for write-through once installed
}

// stageBatchLocked stages ps into a cloned metadata document without
// committing anything. Callers own the array exclusively (Store.mu
// held, or the array not yet visible); on failure the write-set has
// already been swept.
func (s *Store) stageBatchLocked(st *arrayState, ps []Payload, kind string) (*stagedBatch, error) {
	staged := st.metaClone()
	v := s.viewOfMeta(st, &staged, staged.NextID)
	ws := newWriteSet()
	qc := newChunkCache()
	sparse, fill := staged.SparseRep, staged.Fill
	repFixed := len(staged.Versions) > 0
	ctx := &insertCtx{st: st, v: v, ws: ws, qc: qc, dir: v.dir, format: staged.Format, sparse: sparse,
		keepPlanes: s.chunkCache != nil}
	fail := func(err error) (*stagedBatch, error) {
		ws.sweep(s)
		s.noteDiskPressure(err)
		return nil, err
	}
	var ids []int
	for _, p := range ps {
		id := staged.NextID
		vm, err := s.stagePayload(ctx, p, id, kind, &repFixed, &sparse, &fill)
		if err != nil {
			return fail(err)
		}
		staged.Versions = append(staged.Versions, vm)
		staged.NextID = id + 1
		staged.SparseRep, staged.Fill = sparse, fill
		ids = append(ids, id)
		if err := s.batchReencodeStaged(st, &staged, ws, qc); err != nil {
			return fail(err)
		}
	}
	return &stagedBatch{st: st, staged: &staged, ws: ws, ids: ids, dir: ctx.dir, planes: ctx.planes}, nil
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	st, ok := s.arrays[srcName]
	if !ok {
		return fmt.Errorf("core: no array %q", srcName)
	}
	if _, err := st.version(srcVersion); err != nil {
		return err
	}
	planes := make([]Plane, len(st.Schema.Attrs))
	for ai, attr := range st.Schema.Attrs {
		pl, err := s.readPlaneLocked(st, srcVersion, attr.Name)
		if err != nil {
			return err
		}
		planes[ai] = pl
	}
	schema := st.Schema
	schema.Name = newName
	if err := s.createArrayLocked(schema, &BranchRef{Array: srcName, Version: srcVersion}); err != nil {
		return err
	}
	if _, err := s.insertBatchLocked(s.arrays[newName], []Payload{{Planes: planes}}, "branch"); err != nil {
		s.rollbackArrayLocked(newName)
		return err
	}
	return nil
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
	if err := s.createArrayLocked(schema, nil); err != nil {
		return err
	}
	for _, p := range parents {
		st := s.arrays[p.Array]
		if _, err := st.version(p.Version); err != nil {
			s.rollbackArrayLocked(newName)
			return err
		}
		planes := make([]Plane, len(st.Schema.Attrs))
		for ai, attr := range st.Schema.Attrs {
			pl, err := s.readPlaneLocked(st, p.Version, attr.Name)
			if err != nil {
				s.rollbackArrayLocked(newName)
				return err
			}
			planes[ai] = pl
		}
		if _, err := s.insertBatchLocked(s.arrays[newName], []Payload{{Planes: planes}}, "merge"); err != nil {
			s.rollbackArrayLocked(newName)
			return err
		}
	}
	return nil
}

func (s *Store) rollbackArrayLocked(name string) {
	if st, ok := s.arrays[name]; ok {
		// through the FS seam so a fault-injected crash cannot "remove"
		// files a dead process never could
		_ = s.fs.RemoveAll(st.dir)
		delete(s.arrays, name)
		s.invalidateArrayLocked(name)
		s.workload.drop(name)
		s.dropTuneEstimate(name)
	}
}
