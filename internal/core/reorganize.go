package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"arrayvers/internal/array"
	"arrayvers/internal/compress"
	"arrayvers/internal/delta"
	"arrayvers/internal/layout"
	"arrayvers/internal/matmat"
)

// LayoutPolicy selects how Reorganize chooses version encodings (§IV).
type LayoutPolicy int

// Supported policies.
const (
	// PolicyOptimal uses the exact space-optimal layout (augmented-graph
	// MST, generalizing Algorithms 1 and 2).
	PolicyOptimal LayoutPolicy = iota
	// PolicyAlgorithm1 uses the paper's Algorithm 1 (single
	// materialization + MST of deltas).
	PolicyAlgorithm1
	// PolicyAlgorithm2 uses the paper's Algorithm 2 (minimum spanning
	// forest refinement, Appendix B).
	PolicyAlgorithm2
	// PolicyLinearChain materializes the newest version and deltas each
	// earlier version against its successor (the §V-D baseline).
	PolicyLinearChain
	// PolicyHeadBiased materializes the newest version and stores the
	// rest most compactly given that root (§IV-E last paragraph).
	PolicyHeadBiased
	// PolicyWorkloadAware minimizes workload I/O cost (§IV-D).
	PolicyWorkloadAware
)

func (p LayoutPolicy) String() string {
	switch p {
	case PolicyOptimal:
		return "optimal"
	case PolicyAlgorithm1:
		return "algorithm1"
	case PolicyAlgorithm2:
		return "algorithm2"
	case PolicyLinearChain:
		return "linear"
	case PolicyHeadBiased:
		return "head"
	case PolicyWorkloadAware:
		return "workload"
	default:
		return fmt.Sprintf("LayoutPolicy(%d)", int(p))
	}
}

// ReorganizeOptions parameterizes Reorganize.
type ReorganizeOptions struct {
	Policy LayoutPolicy
	// Workload drives PolicyWorkloadAware; query version values are
	// version IDs.
	Workload []layout.Query
	// MatrixSample, when positive, builds the materialization matrix from
	// sampled cells (§IV-A).
	MatrixSample int
	// BatchK, when positive, re-encodes versions in independent
	// consecutive batches of K versions (§IV-E), bounding matrix size and
	// delta-chain length.
	BatchK int
	// lenientWorkload re-filters the workload against the live version
	// set at plan time instead of erroring on an unknown version. The
	// tuner sets it: its recorded queries can reference versions deleted
	// between the histogram snapshot and the rewrite, and a routine race
	// must not fail the pass. Explicit API callers keep the strict error.
	lenientWorkload bool
	// plan carries the tuner's already-decoded planes and chosen layout
	// so an uncontended tuner rewrite does not decode every version a
	// second time. It is used only if the array's mutation sequence
	// still matches plan.seq at snapshot time; otherwise the rewrite
	// replans from live metadata as usual.
	plan *rewritePlan
}

// rewritePlan is a precomputed rewrite input, valid for one exact
// mutation sequence of the array.
type rewritePlan struct {
	seq    uint64
	ids    []int
	planes [][]Plane
	layout layout.Layout
}

// ComputeLayout builds the materialization matrix for an array's live
// versions and the layout the given policy selects, without rewriting
// anything. The returned id slice maps layout indices to version IDs.
//
// The store lock is held only long enough to snapshot the array's
// metadata; version decoding and matrix construction run against the
// snapshot with no lock held, so layout planning never stalls concurrent
// inserts or selects. (BatchK is ignored here: the matrix and layout
// describe the whole version set; Reorganize applies batching.)
func (s *Store) ComputeLayout(name string, opts ReorganizeOptions) (layout.Layout, *matmat.Matrix, []int, error) {
	v, release, err := s.snapshotUncached(name)
	if err != nil {
		return layout.Layout{}, nil, nil, err
	}
	defer release()
	ids, planes, err := s.loadPlanesView(v)
	if err != nil {
		return layout.Layout{}, nil, nil, err
	}
	if len(ids) == 0 {
		return layout.NewLayout(0), matmat.New(0), ids, nil
	}
	mm, err := s.buildMatrix(v.st.SparseRep, len(v.st.Schema.Attrs), planes, opts.MatrixSample)
	if err != nil {
		return layout.Layout{}, nil, nil, err
	}
	l, err := chooseLayout(mm, ids, opts)
	if err != nil {
		return layout.Layout{}, nil, nil, err
	}
	return l, mm, ids, nil
}

// reorgRetries bounds the off-lock rebuild attempts a Reorganize makes
// before falling back to rebuilding under the exclusive store lock
// (guaranteed progress when the array mutates faster than it can be
// re-encoded).
const reorgRetries = 3

// Reorganize re-encodes every live version of an array according to the
// chosen layout policy — the "background re-organization step" of §IV-E.
// Old chunk payloads are dropped (the chunks directory is rewritten).
//
// The rewrite is built optimistically off-lock: the array's metadata is
// snapshotted under the store lock, every version is decoded and
// re-encoded into a fresh generation directory with no store lock held,
// and the result is committed under the lock only if the array's
// mutation sequence is unchanged (otherwise the build is discarded and
// retried). Readers and inserts therefore proceed concurrently with the
// bulk of the work; only the metadata swap itself serializes with them.
// Destructive rewrites on one array are serialized by a per-array latch.
func (s *Store) Reorganize(name string, opts ReorganizeOptions) error {
	if err := s.writeGate(name); err != nil {
		return err
	}
	st, err := s.lockRewrite(name)
	if err != nil {
		return err
	}
	defer st.reorgMu.Unlock()
	for attempt := 0; attempt < reorgRetries; attempt++ {
		committed, err := s.tryReorganize(name, st, opts)
		if committed || err != nil {
			return err
		}
	}
	// the array is mutating faster than the off-lock builds can keep up;
	// rebuild under the commit latch and the exclusive lock so the call
	// terminates
	s.man.mu.Lock()
	defer s.man.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.arrays[name] != st {
		return fmt.Errorf("core: no array %q", name)
	}
	return s.reorganizeLocked(st, opts)
}

// lockRewrite resolves an array and takes its rewrite latch, handling
// the race where the array is dropped or replaced while waiting. The
// caller must release st.reorgMu. The latch is always acquired without
// holding Store.mu.
func (s *Store) lockRewrite(name string) (*arrayState, error) {
	return s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu}
	})
}

// tryReorganize performs one optimistic off-lock rebuild attempt.
// It reports whether the rewrite committed; (false, nil) means the
// metadata moved underneath the build and the caller should retry.
func (s *Store) tryReorganize(name string, st *arrayState, opts ReorganizeOptions) (bool, error) {
	v, release, err := s.snapshotUncached(name)
	if err != nil {
		return false, err
	}
	if v.st != st {
		release()
		return false, fmt.Errorf("core: array %q was replaced during reorganize", name)
	}
	var (
		ids    []int
		planes [][]Plane
		l      layout.Layout
	)
	if p := opts.plan; p != nil && p.seq == v.seq {
		// the tuner already decoded this exact state while estimating
		ids, planes, l = p.ids, p.planes, p.layout
	} else {
		var err error
		ids, planes, err = s.loadPlanesView(v)
		if err != nil {
			release()
			return false, err
		}
		if len(ids) == 0 {
			release()
			return true, nil
		}
		l, err = s.planLayout(v.st, ids, planes, opts)
		if err != nil {
			release()
			return false, err
		}
	}
	buildDir := s.newBuildDir(st)
	entries, err := s.buildRewrite(v.st, buildDir, ids, planes, l)
	if err == nil {
		// the build dir is immutable from here on; run its per-file
		// fsync sweep before touching the store lock so the commit's
		// critical section is just the rename + metadata write
		err = s.syncBuild(buildDir)
	}
	release()
	if err != nil {
		_ = s.fs.RemoveAll(buildDir)
		s.noteDiskPressure(err)
		return false, err
	}
	// the commit latch serializes this rewrite's metadata commit with
	// every other metadata writer, the insert queue's included
	s.man.mu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.man.mu.Unlock()
		_ = s.fs.RemoveAll(buildDir)
		return false, ErrClosed
	}
	if s.arrays[name] != st || st.seq != v.seq {
		// a concurrent mutation invalidated the build: its planes (and
		// therefore its encodings) may describe superseded contents
		s.mu.Unlock()
		s.man.mu.Unlock()
		_ = s.fs.RemoveAll(buildDir)
		return false, nil
	}
	st.mutateLocked()
	oldDir, err := s.commitRewriteLocked(st, buildDir, ids, entries)
	if err != nil {
		s.mu.Unlock()
		s.man.mu.Unlock()
		// a failure before the generation rename leaves the build dir
		// behind, and non-durable stores never sweep chunks* debris
		_ = s.fs.RemoveAll(buildDir)
		return false, err
	}
	// decoded content is unchanged, but the encoding generation moved on;
	// drop cached chunks so stale in-flight readers cannot repopulate the
	// current generation (the epoch in every cache key enforces this)
	s.invalidateArrayLocked(name)
	s.mu.Unlock()
	s.man.mu.Unlock()
	// post-commit garbage collection: waiting out in-flight readers that
	// pinned the old generation happens with no store lock held, so new
	// selects (on this and every other array) proceed meanwhile. The
	// epoch bump above already made the old generation's cache entries
	// unreachable; retire defers the unlink past any still resident.
	st.ioMu.Lock()
	s.maps.retire(oldDir, func() { _ = s.fs.RemoveAll(oldDir) })
	st.ioMu.Unlock()
	return true, nil
}

// reorganizeLocked is the contended-fallback rewrite: build and commit
// while holding Store.mu exclusively. Callers hold the rewrite latch and
// Store.mu.
func (s *Store) reorganizeLocked(st *arrayState, opts ReorganizeOptions) error {
	st.mutateLocked()
	v := s.viewLocked(st, false)
	v.noCache = true
	ids, planes, err := s.loadPlanesView(v)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	l, err := s.planLayout(st, ids, planes, opts)
	if err != nil {
		return err
	}
	buildDir := s.newBuildDir(st)
	entries, err := s.buildRewrite(st, buildDir, ids, planes, l)
	if err != nil {
		_ = s.fs.RemoveAll(buildDir)
		return err
	}
	if err := s.commitRewrite(st, buildDir, ids, entries); err != nil {
		_ = s.fs.RemoveAll(buildDir)
		return err
	}
	s.invalidateArrayLocked(st.Schema.Name)
	return nil
}

// newBuildDir names a fresh, private build directory for one rewrite
// attempt. The "chunks" prefix puts leftovers from interrupted builds in
// recovery's sweep path; the sequence number keeps retried builds from
// ever sharing a directory.
func (s *Store) newBuildDir(st *arrayState) string {
	return filepath.Join(st.dir, fmt.Sprintf("chunks.build-%d", s.buildSeq.Add(1)))
}

// planLayout chooses the layout for a full rewrite, applying §IV-E
// batching when requested.
func (s *Store) planLayout(st *arrayState, ids []int, planes [][]Plane, opts ReorganizeOptions) (layout.Layout, error) {
	if opts.BatchK > 0 && opts.BatchK < len(ids) {
		if opts.Policy == PolicyWorkloadAware && !opts.lenientWorkload {
			// strict callers get the same unknown-version validation the
			// non-batched path applies, before batching slices the
			// workload per range
			if _, err := remapWorkload(opts.Workload, ids); err != nil {
				return layout.Layout{}, err
			}
		}
		// §IV-E: optimize each batch of K versions independently
		l := layout.NewLayout(len(ids))
		for lo := 0; lo < len(ids); lo += opts.BatchK {
			hi := lo + opts.BatchK
			if hi > len(ids) {
				hi = len(ids)
			}
			sub, err := s.layoutForRange(st, planes, ids, lo, hi, opts)
			if err != nil {
				return layout.Layout{}, err
			}
			for i := lo; i < hi; i++ {
				l.Parent[i] = sub.Parent[i-lo] + lo
			}
		}
		return l, nil
	}
	mm, err := s.buildMatrix(st.SparseRep, len(st.Schema.Attrs), planes, opts.MatrixSample)
	if err != nil {
		return layout.Layout{}, err
	}
	if opts.lenientWorkload && opts.Policy == PolicyWorkloadAware {
		opts.Workload = FilterWorkload(opts.Workload, ids)
	}
	return chooseLayout(mm, ids, opts)
}

func (s *Store) layoutForRange(st *arrayState, planes [][]Plane, ids []int, lo, hi int, opts ReorganizeOptions) (layout.Layout, error) {
	sub := planes[lo:hi]
	mm, err := s.buildMatrix(st.SparseRep, len(st.Schema.Attrs), sub, opts.MatrixSample)
	if err != nil {
		return layout.Layout{}, err
	}
	if opts.Policy == PolicyWorkloadAware {
		// batches are laid out independently, so each one sees only the
		// slice of the workload that falls inside it
		opts.Workload = FilterWorkload(opts.Workload, ids[lo:hi])
	}
	return chooseLayout(mm, ids[lo:hi], opts)
}

// loadPlanesView reconstructs every live version's content (all
// attributes) against a metadata snapshot, in version order. Safe to
// call with no store lock held when v is a cloned snapshot. The scan
// shares one per-call memo across versions, so each delta chain is
// walked once regardless of version count — it does not rely on (or,
// through an uncached view, touch) the store-wide LRU.
func (s *Store) loadPlanesView(v *readView) ([]int, [][]Plane, error) {
	ids := v.ids
	full := array.BoxOf(v.st.Schema.Shape())
	planes := make([][]Plane, len(ids))
	qc := newChunkCache()
	for i, id := range ids {
		planes[i] = make([]Plane, len(v.st.Schema.Attrs))
		for ai, attr := range v.st.Schema.Attrs {
			pl, err := s.readRegionView(context.Background(), v, id, attr.Name, full, qc, nil)
			if err != nil {
				return nil, nil, err
			}
			planes[i][ai] = pl
		}
	}
	return ids, planes, nil
}

// buildMatrix computes the materialization matrix over versions, summing
// costs across attributes. The representation is an explicit argument
// (rather than read from the arrayState) because a staged first commit
// may fix it before it is installed; it touches no mutable state, so it
// is safe off-lock.
func (s *Store) buildMatrix(sparse bool, nattrs int, planes [][]Plane, sample int) (*matmat.Matrix, error) {
	n := len(planes)
	total := matmat.New(n)
	for ai := 0; ai < nattrs; ai++ {
		var mm *matmat.Matrix
		var err error
		if sparse {
			vs := make([]*array.Sparse, n)
			for i := range planes {
				vs[i] = planes[i][ai].Sparse
			}
			mm, err = matmat.ComputeSparse(vs)
		} else {
			vs := make([]*array.Dense, n)
			for i := range planes {
				vs[i] = planes[i][ai].Dense
			}
			mm, err = matmat.Compute(vs, matmat.Options{Sample: sample, Seed: int64(ai)})
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				total.Cost[i][j] += mm.Cost[i][j]
			}
		}
	}
	return total, nil
}

func chooseLayout(mm *matmat.Matrix, ids []int, opts ReorganizeOptions) (layout.Layout, error) {
	switch opts.Policy {
	case PolicyOptimal:
		return layout.Optimal(mm), nil
	case PolicyAlgorithm1:
		return layout.Algorithm1(mm), nil
	case PolicyAlgorithm2:
		return layout.Algorithm2(mm), nil
	case PolicyLinearChain:
		return layout.LinearChain(mm.N), nil
	case PolicyHeadBiased:
		return layout.HeadBiasedLayout(mm), nil
	case PolicyWorkloadAware:
		wl, err := remapWorkload(opts.Workload, ids)
		if err != nil {
			return layout.Layout{}, err
		}
		return layout.WorkloadAware(mm, wl), nil
	default:
		return layout.Layout{}, fmt.Errorf("core: unknown layout policy %d", opts.Policy)
	}
}

// remapWorkload translates query version IDs into layout indices.
func remapWorkload(wl []layout.Query, ids []int) ([]layout.Query, error) {
	pos := make(map[int]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	out := make([]layout.Query, len(wl))
	for qi, q := range wl {
		mapped := layout.Query{Weight: q.Weight}
		for _, v := range q.Versions {
			p, ok := pos[v]
			if !ok {
				return nil, fmt.Errorf("core: workload references unknown version %d", v)
			}
			mapped.Versions = append(mapped.Versions, p)
		}
		out[qi] = mapped
	}
	return out, nil
}

// FilterWorkload restricts workload queries to the given version IDs:
// versions outside the set are dropped from each query, and queries left
// empty are removed. The tuner uses it to shed references to deleted
// versions; batched rewrites use it to slice the workload per batch.
func FilterWorkload(wl []layout.Query, ids []int) []layout.Query {
	in := make(map[int]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	var out []layout.Query
	for _, q := range wl {
		var vs []int
		for _, v := range q.Versions {
			if in[v] {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			out = append(out, layout.Query{Versions: vs, Weight: q.Weight})
		}
	}
	return out
}

// buildRewrite re-encodes all versions per the layout into the given
// private build directory and returns the new chunk entries, one map per
// id. It reads only immutable arrayState fields and the passed planes,
// so it runs with no store lock held; the caller pins the source
// generation via the snapshot's read latch. The rewrite always produces
// checksummed frames, so committing it also upgrades legacy raw-format
// arrays.
func (s *Store) buildRewrite(st *arrayState, buildDir string, ids []int, planes [][]Plane, l layout.Layout) ([]map[string]map[string]chunkEntry, error) {
	// the sequence restarts per process, so a crashed non-durable run
	// (which never sweeps chunks* debris at Open) can have left a stale
	// directory under this name; never append after its garbage
	if err := s.fs.RemoveAll(buildDir); err != nil {
		return nil, err
	}
	if err := s.fs.MkdirAll(buildDir); err != nil {
		return nil, err
	}
	newEntries := make([]map[string]map[string]chunkEntry, len(ids))
	for i := range ids {
		newEntries[i] = make(map[string]map[string]chunkEntry)
	}
	for ai, attr := range st.Schema.Attrs {
		if st.SparseRep {
			for i := range ids {
				payload, base, err := encodeSparseAgainst(planes, l, i, ai, ids)
				if err != nil {
					return nil, err
				}
				codec := pickCodec(s.opts.Codec, false)
				sealed, used, err := seal(codec, s.opts.AdaptiveCodec, payload, compress.Params{Elem: 1})
				if err != nil {
					return nil, err
				}
				file := chainFileName(attr.Name, "chunk-full")
				off, err := s.appendBlob(filepath.Join(buildDir, file), formatFramed, sealed, false)
				if err != nil {
					return nil, err
				}
				s.addWrite(int64(len(sealed)))
				newEntries[i][attr.Name] = map[string]chunkEntry{
					"chunk-full": {File: file, Offset: off, Length: int64(len(sealed)), Codec: uint8(used), Base: base},
				}
			}
			continue
		}
		ck, err := st.chunker()
		if err != nil {
			return nil, err
		}
		for i := range ids {
			newEntries[i][attr.Name] = make(map[string]chunkEntry)
		}
		for _, origin := range ck.All() {
			box := ck.Box(origin)
			key := ck.Key(origin)
			for i := range ids {
				target, err := planes[i][ai].Dense.Slice(box)
				if err != nil {
					return nil, err
				}
				payload := target.Bytes()
				entryBase := -1
				rawDense := true
				if p := l.Parent[i]; p != i {
					baseChunk, err := planes[p][ai].Dense.Slice(box)
					if err != nil {
						return nil, err
					}
					blob, err := delta.Encode(s.opts.DeltaMethod, target, baseChunk)
					if err != nil {
						return nil, err
					}
					if len(blob) < len(payload) {
						payload = blob
						entryBase = ids[p]
						rawDense = false
					}
				}
				codec := pickCodec(s.opts.Codec, rawDense)
				sealed, used, err := seal(codec, s.opts.AdaptiveCodec, payload, sealParams(rawDense, box, attr.Type))
				if err != nil {
					return nil, err
				}
				file := chainFileName(attr.Name, key)
				off, err := s.appendBlob(filepath.Join(buildDir, file), formatFramed, sealed, false)
				if err != nil {
					return nil, err
				}
				s.addWrite(int64(len(sealed)))
				newEntries[i][attr.Name][key] = chunkEntry{
					File: file, Offset: off, Length: int64(len(sealed)), Codec: uint8(used), Base: entryBase,
				}
			}
		}
	}
	return newEntries, nil
}

// applyEntries builds the commit callback that installs a rewrite's new
// chunk maps on the rewritten versions — shared by the off-lock and
// under-lock commit paths so they cannot drift.
func applyEntries(st *arrayState, ids []int, entries []map[string]map[string]chunkEntry) func() {
	idPos := make(map[int]int, len(ids))
	for i, id := range ids {
		idPos[id] = i
	}
	return func() {
		for _, vm := range st.Versions {
			if i, ok := idPos[vm.ID]; ok {
				vm.Chunks = entries[i]
			}
		}
	}
}

// commitRewrite is the single-call form of commitRewriteLocked for
// callers that hold Store.mu across the whole rewrite (the contended
// fallback): sync, commit, and remove the old generation in place.
func (s *Store) commitRewrite(st *arrayState, buildDir string, ids []int, entries []map[string]map[string]chunkEntry) error {
	return s.commitGen(st, st.Gen+1, buildDir, applyEntries(st, ids, entries))
}

// commitRewriteLocked publishes a fully built, already-synced rewrite:
// the build directory becomes the next chunk generation and the new
// entries replace the rewritten versions' chunk maps. It returns the
// superseded generation directory, which the caller removes under the
// I/O latch after releasing Store.mu. Callers hold Store.mu and the
// rewrite latch and have already called syncBuild.
func (s *Store) commitRewriteLocked(st *arrayState, buildDir string, ids []int, entries []map[string]map[string]chunkEntry) (string, error) {
	return s.commitGenLocked(st, st.Gen+1, buildDir, applyEntries(st, ids, entries))
}

// The commit protocol for destructive rewrites:
//
//  1. sync the build directory's files (syncBuild — runnable before any
//     lock, since a finished build is immutable), then rename it to its
//     committed generation name and sync the array directory — the new
//     payloads are now durable but unreferenced;
//  2. stage the new metadata (generation number, framed format, the
//     entries the apply callback installs) and commit it with one
//     manifest-log record — this is the commit point;
//  3. remove the old generation under the exclusive I/O latch, waiting
//     out in-flight readers whose snapshots pinned it.
//
// A crash before step 2 leaves the old metadata pointing at the intact
// old generation (recovery sweeps the unreferenced new one); a crash
// after it leaves the new metadata pointing at the fully synced new
// generation (recovery sweeps the old one).

// syncBuild makes a finished build directory durable (step 1's fsync
// sweep). The build phase appends unsynced — one fsync per append would
// make rewrites O(chunks) in disk-flush cost — so each built file is
// synced exactly once here, before anything can reference it. No-op
// without Durability.
func (s *Store) syncBuild(buildDir string) error {
	if !s.opts.Durability {
		return nil
	}
	if err := s.syncDirFiles(buildDir); err != nil {
		return err
	}
	return s.fs.SyncDir(buildDir)
}

// commitGenLocked runs steps 1b–2: rename the synced build directory to
// its generation name and commit the metadata. It returns the
// superseded generation directory for the caller to remove (step 3)
// once it is safe to wait on the I/O latch. Callers hold Store.mu.
func (s *Store) commitGenLocked(st *arrayState, newGen int, buildDir string, apply func()) (string, error) {
	finalDir := filepath.Join(st.dir, chunksDirName(newGen))
	// a leftover directory with this generation name can only be debris
	// from an interrupted rewrite that never committed
	// failures here are benign (the metadata still references the old
	// generation; at worst an uncommitted directory lingers as debris
	// for recovery or heal to sweep), but ENOSPC still stops the store
	if err := s.fs.RemoveAll(finalDir); err != nil {
		s.noteDiskPressure(err)
		return "", err
	}
	if err := s.fs.Rename(buildDir, finalDir); err != nil {
		s.noteDiskPressure(err)
		return "", err
	}
	if s.opts.Durability {
		if err := s.fs.SyncDir(st.dir); err != nil {
			s.noteDiskPressure(err)
			return "", err
		}
	}
	oldDir := st.chunksDir()
	st.Gen = newGen          //avlint:allow-install generation flip precedes its commit by design: the payloads are already durable, and heal/reopen resolve the divergence when the commit below fails
	st.Format = formatFramed //avlint:allow-install committed together with Gen above; same divergence contract
	apply()
	if err := s.man.commit(st.metaOp()); err != nil {
		// the commit did not land on disk; in-memory state keeps the new
		// generation (its payloads are all present and durable) and a
		// reopen recovers to the old metadata + old generation. Memory
		// and disk now disagree no matter how the write failed, so the
		// array degrades until the heal re-commits the in-memory view.
		s.noteCommitFailure(st, err)
		return "", err
	}
	return oldDir, nil
}

// commitGen is the single-call form for rewrites that run fully under
// Store.mu (Compact, the contended Reorganize fallback): sync, commit,
// and remove the old generation in place. A removal failure just leaves
// a stale generation for the next Open's recovery to sweep.
func (s *Store) commitGen(st *arrayState, newGen int, buildDir string, apply func()) error {
	if err := s.syncBuild(buildDir); err != nil {
		return err
	}
	oldDir, err := s.commitGenLocked(st, newGen, buildDir, apply)
	if err != nil {
		return err
	}
	// retire defers the unlink past cached zero-copy planes of the old
	// generation. Callers hold Store.mu for the rest of their critical
	// section and invalidate the array's cache before releasing it, so no
	// future lookup can return a retired-generation plane.
	st.ioMu.Lock()
	s.maps.retire(oldDir, func() { _ = s.fs.RemoveAll(oldDir) })
	st.ioMu.Unlock()
	return nil
}

func encodeSparseAgainst(planes [][]Plane, l layout.Layout, i, ai int, ids []int) ([]byte, int, error) {
	sp := planes[i][ai].Sparse
	if p := l.Parent[i]; p != i {
		blob, err := delta.EncodeSparseOps(sp, planes[p][ai].Sparse)
		if err != nil {
			return nil, 0, err
		}
		native := array.MarshalSparse(sp)
		if len(blob) < len(native) {
			return blob, ids[p], nil
		}
		return native, -1, nil
	}
	return array.MarshalSparse(sp), -1, nil
}

// syncDirFiles fsyncs every regular file in dir.
func (s *Store) syncDirFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		f, err := s.fs.Append(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		serr := f.Sync()
		if cerr := f.Close(); serr == nil {
			serr = cerr
		}
		if serr != nil {
			return serr
		}
	}
	return nil
}

// DeleteVersion removes a version. Versions delta'ed against it are
// first re-encoded (against the deleted version's own base, or
// materialized), preserving the no-overwrite property for everything
// still live. Space is reclaimed by Compact.
//
// Like the insert path, the deletion is staged: the re-encoded chunk
// maps and the deletion flag are built on cloned versionMeta records in
// a staged arrayMeta, committed with one manifest record, and installed
// into the live state only on success — a failed commit leaves memory
// and disk agreeing that the version is still live, and sweeps the
// re-encode's appended blobs. The write latch is held because the
// re-encodes append to chunk files concurrent insert staging also
// appends to.
func (s *Store) DeleteVersion(name string, id int) error {
	if err := s.writeGate(name); err != nil {
		return err
	}
	s.man.mu.Lock()
	defer s.man.mu.Unlock()
	st, err := s.lockWrite(name)
	if err != nil {
		return err
	}
	defer st.writeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.arrays[name] != st {
		return fmt.Errorf("core: no array %q", name)
	}
	vm, err := st.version(id)
	if err != nil {
		return err
	}
	staged := st.metaClone()
	v := s.viewOfMeta(st, &staged, 0)
	ws := newWriteSet()
	qc := newChunkCache()
	ctx := &insertCtx{st: st, v: v, ws: ws, qc: qc, dir: v.dir, format: staged.Format, sparse: staged.SparseRep}
	full := array.BoxOf(st.Schema.Shape())
	commit := func() error {
		// the child re-encodes below only ever append (fresh FileSeq
		// files in per-version mode, chain tails in co-located mode), so
		// in-flight readers keep decoding their snapshots without a latch.
		// re-encode every live chunk that bases on the deleted version
		for si, child := range staged.Versions {
			if child.ID == id || child.Deleted {
				continue
			}
			var cp *versionMeta
			for _, attr := range st.Schema.Attrs {
				dirty := false
				for _, e := range child.Chunks[attr.Name] {
					if e.Base == id {
						dirty = true
						break
					}
				}
				if !dirty {
					continue
				}
				pl, err := s.readRegionView(ctx.context(), v, child.ID, attr.Name, full, qc, nil)
				if err != nil {
					return err
				}
				// choose the deleted version's base as the new base when it
				// is still live, otherwise materialize; scan every chunk and
				// take the newest live base so the pick is deterministic
				// (map iteration order is not)
				newBase := 0
				for _, e := range vm.Chunks[attr.Name] {
					if e.Base >= 0 && e.Base > newBase && e.Base != id {
						if _, err := v.version(e.Base); err == nil {
							newBase = e.Base
						}
					}
				}
				entries, err := s.encodePlane(ctx, child.ID, attr, pl, newBase)
				if err != nil {
					return err
				}
				// published versions are shared with reader snapshots:
				// clone before replacing the chunk map, swap the clone in
				if cp == nil {
					c := *child
					c.Chunks = make(map[string]map[string]chunkEntry, len(child.Chunks))
					for a, m := range child.Chunks {
						c.Chunks[a] = m
					}
					cp = &c
				}
				cp.Chunks[attr.Name] = entries
			}
			if cp != nil {
				staged.Versions[si] = cp
				v.byID[child.ID] = cp
			}
		}
		for si, svm := range staged.Versions {
			if svm.ID == id {
				del := *svm
				del.Deleted = true
				staged.Versions[si] = &del
				break
			}
		}
		if err := ws.sync(s, ctx.dir); err != nil {
			s.noteCommitFailure(st, err)
			return err
		}
		if err := s.man.commit(manifestOp{Name: name, Meta: &staged}); err != nil {
			if isUncertain(err) {
				s.noteCommitFailure(st, err)
			}
			return err
		}
		return nil
	}
	if err := commit(); err != nil {
		ws.sweep(s)
		s.noteDiskPressure(err)
		return err
	}
	st.mutateLocked()
	st.installMeta(staged)
	// drain in-flight readers before sweeping the cache: a reader that
	// snapshotted before the delete may otherwise re-insert entries after
	// the sweep, leaving them resident until eviction pressure finds
	// them.
	st.ioMu.Lock()
	st.ioMu.Unlock() //nolint:staticcheck // empty critical section = barrier
	// only the deleted version's decoded chunks are invalid — children
	// were re-encoded above but their decoded content is unchanged, so
	// the rest of the array's warm cache stays (no epoch bump: version
	// ids are never reused, and selects reject deleted ids before any
	// cache lookup)
	s.chunkCache.InvalidateVersion(name, id)
	return nil
}

// Compact rewrites an array's chunk files keeping only payloads
// referenced by live versions, reclaiming space left behind by
// DeleteVersion and superseded encodings. Like Reorganize, it serializes
// with other destructive rewrites on the array's rewrite latch; the copy
// itself runs under the store lock (it is pure I/O relocation, far
// cheaper than a re-encode).
func (s *Store) Compact(name string) error {
	if err := s.writeGate(name); err != nil {
		return err
	}
	st, err := s.lockRewrite(name)
	if err != nil {
		return err
	}
	defer st.reorgMu.Unlock()
	// the commit latch: the generation flip commits new metadata
	s.man.mu.Lock()
	defer s.man.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.arrays[name] != st {
		return fmt.Errorf("core: no array %q", name)
	}
	st.mutateLocked()
	buildDir := s.newBuildDir(st)
	// sweep any same-named debris a crashed non-durable run left behind
	if err := s.fs.RemoveAll(buildDir); err != nil {
		return err
	}
	if err := s.fs.MkdirAll(buildDir); err != nil {
		return err
	}
	// copy referenced payloads in a deterministic order
	type ref struct {
		vm   *versionMeta
		attr string
		key  string
	}
	var refs []ref
	for _, vm := range st.live() {
		for attr, chunks := range vm.Chunks {
			for key := range chunks {
				refs = append(refs, ref{vm, attr, key})
			}
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		ra, rb := refs[a], refs[b]
		if ra.attr != rb.attr {
			return ra.attr < rb.attr
		}
		if ra.key != rb.key {
			return ra.key < rb.key
		}
		return ra.vm.ID < rb.vm.ID
	})
	// copy-on-write: inner chunk maps of published versions are shared
	// with reader snapshots and must never be written in place, so the
	// relocated entries accumulate in fresh maps that are swapped in at
	// the end
	fresh := make(map[*versionMeta]map[string]map[string]chunkEntry)
	for _, r := range refs {
		e := r.vm.Chunks[r.attr][r.key]
		blob, err := s.readBlob(st.chunksDir(), st.Format, e)
		if err != nil {
			return err
		}
		file := e.File
		if s.opts.CoLocate {
			file = chainFileName(r.attr, r.key)
		}
		// the copy re-frames every payload, upgrading raw-format arrays
		off, err := s.appendBlob(filepath.Join(buildDir, file), formatFramed, blob, false)
		if err != nil {
			return err
		}
		e.File = file
		e.Offset = off
		byAttr, ok := fresh[r.vm]
		if !ok {
			byAttr = make(map[string]map[string]chunkEntry)
			fresh[r.vm] = byAttr
		}
		if byAttr[r.attr] == nil {
			byAttr[r.attr] = make(map[string]chunkEntry, len(r.vm.Chunks[r.attr]))
		}
		byAttr[r.attr][r.key] = e
	}
	err = s.commitGen(st, st.Gen+1, buildDir, func() {
		for vm, byAttr := range fresh {
			for attr, m := range byAttr {
				vm.Chunks[attr] = m
			}
		}
	})
	if err != nil {
		_ = s.fs.RemoveAll(buildDir)
		return err
	}
	if s.maps.active() {
		// decoded content is unchanged, but cached zero-copy planes alias
		// the retired generation's mapping: bump the epoch so they can
		// never be served again, releasing their refs (and with them the
		// deferred unlink) before Store.mu is released. Without mmap the
		// warm cache stays valid and is kept.
		s.invalidateArrayLocked(name)
	}
	return nil
}
