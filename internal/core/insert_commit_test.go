package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
)

// Regression tests for the insert commit path: transactional staging
// (no phantom versions on a failed commit), failure-site orphan
// reclamation, InsertBatch atomicity, and the group-commit coalescer
// under concurrent writers.

var errInjected = errors.New("injected io failure")

// failFS wraps a filesystem and fails exactly one matching mutation,
// then behaves normally — unlike fsio.Fault, which ends the world — so
// tests can assert the store keeps working after an I/O error.
type failFS struct {
	fsio.FS
	mu    sync.Mutex
	match func(op, path string) bool
}

func (f *failFS) arm(match func(op, path string) bool) {
	f.mu.Lock()
	f.match = match
	f.mu.Unlock()
}

func (f *failFS) hit(op, path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.match != nil && f.match(op, path) {
		f.match = nil
		return true
	}
	return false
}

func (f *failFS) Create(path string) (fsio.File, error) {
	if f.hit("create", path) {
		return nil, errInjected
	}
	return f.FS.Create(path)
}

func (f *failFS) Append(path string) (fsio.File, error) {
	if f.hit("append", path) {
		return nil, errInjected
	}
	file, err := f.FS.Append(path)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, fs: f, path: path}, nil
}

// failFile routes Writes to a file opened for append through the
// failFS matcher as op "write".
type failFile struct {
	fsio.File
	fs   *failFS
	path string
}

func (fl *failFile) Write(p []byte) (int, error) {
	if fl.fs.hit("write", fl.path) {
		return 0, errInjected
	}
	return fl.File.Write(p)
}

func (f *failFS) Rename(oldPath, newPath string) error {
	if f.hit("rename", newPath) {
		return errInjected
	}
	return f.FS.Rename(oldPath, newPath)
}

func (f *failFS) SyncDir(path string) error {
	if f.hit("syncdir", path) {
		return errInjected
	}
	return f.FS.SyncDir(path)
}

// assertStoreAgrees reopens the store directory with recovery and
// checks that the on-disk state matches the live store's versions and
// contents exactly — the phantom-version bug made them diverge.
func assertStoreAgrees(t *testing.T, s *Store, name string, want map[int]*array.Dense) {
	t.Helper()
	check := func(label string, st *Store) {
		infos, err := st.Versions(name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(infos) != len(want) {
			t.Fatalf("%s: %d live versions, want %d", label, len(infos), len(want))
		}
		for _, vi := range infos {
			content, ok := want[vi.ID]
			if !ok {
				t.Fatalf("%s: unexpected version %d", label, vi.ID)
			}
			got, err := st.Select(name, vi.ID)
			if err != nil {
				t.Fatalf("%s: version %d unreadable: %v", label, vi.ID, err)
			}
			if !got.Dense.Equal(content) {
				t.Fatalf("%s: version %d corrupted", label, vi.ID)
			}
		}
	}
	check("live store", s)
	r, err := Open(s.Dir(), Options{ChunkBytes: s.opts.ChunkBytes, CoLocate: s.opts.CoLocate,
		Durability: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := r.Recovery().DroppedVersions; got != 0 {
		t.Fatalf("reopen dropped %d committed versions", got)
	}
	check("reopened store", r)
}

// TestInsertMetaCommitFailureRollsBack is the phantom-version
// regression: a commit fault injected under the insert's metadata
// commit — the manifest-log append — must leave the failed id
// unselectable, the in-memory state identical to a durable reopen, the
// orphaned blobs reclaimed, and the id reusable by the next insert.
// Failing to open the log is benign; a failed write leaves the record's
// durability uncertain and must degrade until a heal.
func TestInsertMetaCommitFailureRollsBack(t *testing.T) {
	isLog := func(path string) bool {
		base := filepath.Base(path)
		return strings.HasPrefix(base, manifestPrefix) && strings.HasSuffix(base, ".log")
	}
	for _, fault := range []struct{ name, op string }{
		{"append-open", "append"}, // benign: no byte of the record written
		{"write", "write"},        // uncertain: the record may be partially durable
	} {
		t.Run(fault.name, func(t *testing.T) {
			ffs := &failFS{FS: fsio.OS}
			opts := smallOpts()
			opts.ChunkBytes = 1 << 10
			opts.Durability = true
			opts.FS = ffs
			opts.HealInterval = -1 // heal explicitly, not from the background prober
			s := testStore(t, opts)
			const side = 16
			if err := s.CreateArray(schema2D("A", side)); err != nil {
				t.Fatal(err)
			}
			v1 := crashContent(1, side)
			if _, err := s.Insert("A", DensePayload(v1)); err != nil {
				t.Fatal(err)
			}
			ffs.arm(func(op, path string) bool { return op == fault.op && isLog(path) })
			if _, err := s.Insert("A", DensePayload(crashContent(2, side))); !errors.Is(err, errInjected) {
				t.Fatalf("insert under a meta-commit fault returned %v, want the injected failure", err)
			}
			if fault.op == "write" {
				// a failed log write leaves the on-disk effect
				// uncertain: the array must be contained in degraded
				// read-only mode until a heal verifies the disk
				if h := s.Health(); !h.Degraded {
					t.Fatal("array not degraded after an uncertain manifest write failure")
				}
				if _, err := s.Insert("A", DensePayload(crashContent(9, side))); !errors.Is(err, ErrDegraded) {
					t.Fatalf("insert while degraded returned %v, want ErrDegraded", err)
				}
				rep, err := s.Heal()
				if err != nil {
					t.Fatalf("heal: %v", err)
				}
				if len(rep.Healed) != 1 || rep.Healed[0] != "A" {
					t.Fatalf("heal flipped %v back to writable, want [A]", rep.Healed)
				}
				if h := s.Health(); h.Degraded {
					t.Fatal("store still degraded after a successful heal")
				}
			} else if h := s.Health(); h.Degraded {
				t.Fatal("benign pre-commit failure must not degrade the array")
			}
			// the failed version must be invisible to selects and absent
			// from metadata, in memory and after a reopen alike
			if _, err := s.Select("A", 2); err == nil {
				t.Fatal("phantom version 2 is selectable after a failed commit")
			}
			assertStoreAgrees(t, s, "A", map[int]*array.Dense{1: v1})
			// the blobs the failed insert appended must have been swept
			if st := s.Stats(); st.InsertOrphanFiles == 0 {
				t.Fatal("failed insert reclaimed no orphaned blobs")
			}
			rep, err := s.Verify("A")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("store fails verify after failed insert: %v", rep.Problems)
			}
			if rep.DanglingBytes != 0 {
				t.Fatalf("%d orphaned bytes left dangling after the failure-site sweep", rep.DanglingBytes)
			}
			// the reserved id is reclaimed: the next insert gets id 2 and
			// the store is fully writable
			v2 := crashContent(3, side)
			id, err := s.Insert("A", DensePayload(v2))
			if err != nil {
				t.Fatalf("insert after failed commit: %v", err)
			}
			if id != 2 {
				t.Fatalf("insert after failed commit got id %d, want the reclaimed id 2", id)
			}
			assertStoreAgrees(t, s, "A", map[int]*array.Dense{1: v1, 2: v2})
		})
	}
}

// TestInsertEncodeFailureSweepsOrphans covers the stage-time failure
// site: chunk blobs appended before a mid-encode fault must be
// reclaimed immediately — on non-durable stores too, which never run a
// recovery sweep — and counted in Stats.
func TestInsertEncodeFailureSweepsOrphans(t *testing.T) {
	for _, durable := range []bool{true, false} {
		for _, coLocate := range []bool{true, false} {
			t.Run(fmt.Sprintf("durable=%v/coLocate=%v", durable, coLocate), func(t *testing.T) {
				ffs := &failFS{FS: fsio.OS}
				opts := smallOpts()
				opts.ChunkBytes = 1 << 10 // several chunks per version
				opts.CoLocate = coLocate
				opts.Durability = durable
				opts.Parallelism = 1 // deterministic append order
				opts.FS = ffs
				s := testStore(t, opts)
				const side = 32
				if err := s.CreateArray(schema2D("A", side)); err != nil {
					t.Fatal(err)
				}
				v1 := crashContent(1, side)
				if _, err := s.Insert("A", DensePayload(v1)); err != nil {
					t.Fatal(err)
				}
				// fail the third chunk append of the next insert: two blobs
				// are already on disk and must be swept
				appends := 0
				ffs.arm(func(op, path string) bool {
					if op != "append" || filepath.Base(filepath.Dir(path)) != "chunks" {
						return false
					}
					appends++
					return appends == 3
				})
				if _, err := s.Insert("A", DensePayload(crashContent(2, side))); !errors.Is(err, errInjected) {
					t.Fatalf("insert under an append fault returned %v, want the injected failure", err)
				}
				if st := s.Stats(); st.InsertOrphanFiles == 0 || st.InsertOrphanBytes == 0 {
					t.Fatalf("stage failure reclaimed nothing (files=%d bytes=%d)",
						st.InsertOrphanFiles, st.InsertOrphanBytes)
				}
				rep, err := s.Verify("A")
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Ok() {
					t.Fatalf("store fails verify after failed stage: %v", rep.Problems)
				}
				if rep.DanglingBytes != 0 {
					t.Fatalf("%d orphaned bytes left dangling on a %s store",
						rep.DanglingBytes, map[bool]string{true: "durable", false: "non-durable"}[durable])
				}
				// still fully writable, id unaffected
				if id, err := s.Insert("A", DensePayload(crashContent(3, side))); err != nil || id != 2 {
					t.Fatalf("insert after failed stage: id=%d err=%v, want id 2", id, err)
				}
			})
		}
	}
}

// TestInsertBatchAtomicAndChained pins InsertBatch semantics: one
// shared commit for the whole batch (atomic on failure), contiguous
// ids, lineage chaining member-to-member, and intra-batch delta
// encoding (later members delta against earlier ones staged in the
// same call).
func TestInsertBatchAtomicAndChained(t *testing.T) {
	ffs := &failFS{FS: fsio.OS}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.FS = ffs
	s := testStore(t, opts)
	const side = 32
	if err := s.CreateArray(schema2D("B", side)); err != nil {
		t.Fatal(err)
	}
	series := evolvingVersions(3, side, 7)
	var ps []Payload
	for _, v := range series {
		ps = append(ps, DensePayload(v))
	}
	ids, err := s.InsertBatch("B", ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("batch ids = %v, want [1 2 3]", ids)
	}
	infos, err := s.Versions("B")
	if err != nil {
		t.Fatal(err)
	}
	for i, vi := range infos {
		if i > 0 && (len(vi.Parents) != 1 || vi.Parents[0] != ids[i-1]) {
			t.Fatalf("batch member %d has parents %v, want [%d]", vi.ID, vi.Parents, ids[i-1])
		}
		got, err := s.Select("B", vi.ID)
		if err != nil || !got.Dense.Equal(series[i]) {
			t.Fatalf("batch member %d wrong after commit (%v)", vi.ID, err)
		}
	}
	// the evolving series deltas well: at least one later member should
	// have delta-encoded against an earlier one staged in the same call
	chained := false
	for _, vi := range infos[1:] {
		if len(vi.DeltaBases) > 0 {
			chained = true
		}
	}
	if !chained {
		t.Fatal("no batch member delta-encoded against an earlier member of the same batch")
	}

	// a fault under the shared commit must abort the WHOLE batch (a
	// failed manifest-log open is benign: nothing was appended)
	ffs.arm(func(op, path string) bool {
		return op == "append" && strings.HasSuffix(path, ".log") &&
			strings.Contains(path, manifestPrefix)
	})
	if _, err := s.InsertBatch("B", []Payload{
		DensePayload(crashContent(10, side)),
		DensePayload(crashContent(11, side)),
	}); !errors.Is(err, errInjected) {
		t.Fatalf("batch under a commit fault returned %v, want the injected failure", err)
	}
	infos, err = s.Versions("B")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("failed batch committed partially: %d versions, want 3", len(infos))
	}
	if _, err := s.Select("B", 4); err == nil {
		t.Fatal("phantom batch member selectable after failed shared commit")
	}
	rep, err := s.Verify("B")
	if err != nil || !rep.Ok() {
		t.Fatalf("verify after failed batch: %v %v", err, rep.Problems)
	}
	if rep.DanglingBytes != 0 {
		t.Fatalf("failed batch left %d bytes dangling", rep.DanglingBytes)
	}
}

// TestGroupCommitStress runs 8 durable writers across 4 arrays — the
// -race safety net for the off-lock staging path and the store-wide
// commit queue. Every acknowledged insert must read back
// byte-identical, the commit counters must account for every version,
// and a recovery reopen must agree with the live store. The body runs
// as the subtest "disableGroupCommit=false", the name it carried while
// group commit could still be switched off; the commit queue is now
// always on, so that is the one mode left.
func TestGroupCommitStress(t *testing.T) {
	t.Run("disableGroupCommit=false", testGroupCommitStress)
}

func testGroupCommitStress(t *testing.T) {
	const (
		writers    = 8
		arrays     = 4
		perWriter  = 8
		side       = 16
		arrayNameF = "S%d"
	)
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s := testStore(t, opts)
	for a := 0; a < arrays; a++ {
		if err := s.CreateArray(schema2D(fmt.Sprintf(arrayNameF, a), side)); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu        sync.Mutex
		committed = make([]map[int]*array.Dense, arrays)
		wg        sync.WaitGroup
		failc     = make(chan error, writers)
	)
	for a := range committed {
		committed[a] = map[int]*array.Dense{}
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := w % arrays
			name := fmt.Sprintf(arrayNameF, a)
			for i := 0; i < perWriter; i++ {
				content := crashContent(int64(w*1000+i), side)
				id, err := s.Insert(name, DensePayload(content))
				if err != nil {
					failc <- err
					return
				}
				mu.Lock()
				committed[a][id] = content
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(failc)
	for err := range failc {
		t.Fatal(err)
	}
	st := s.Stats()
	total := int64(writers * perWriter)
	if st.GroupCommitVersions != total {
		t.Fatalf("GroupCommitVersions = %d, want %d", st.GroupCommitVersions, total)
	}
	if st.GroupCommits == 0 || st.GroupCommits > total {
		t.Fatalf("GroupCommits = %d out of range (1..%d)", st.GroupCommits, total)
	}
	for a := 0; a < arrays; a++ {
		assertStoreAgrees(t, s, fmt.Sprintf(arrayNameF, a), committed[a])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// blockLogSyncFS blocks the first fsync of a manifest log after arm
// until release is closed, signalling blocked once it is stuck there.
type blockLogSyncFS struct {
	fsio.FS
	mu      sync.Mutex
	armed   bool
	blocked chan struct{}
	release chan struct{}
}

func (f *blockLogSyncFS) Append(path string) (fsio.File, error) {
	file, err := f.FS.Append(path)
	base := filepath.Base(path)
	if err != nil || !strings.HasPrefix(base, manifestPrefix) || !strings.HasSuffix(base, ".log") {
		return file, err
	}
	return &blockLogSyncFile{File: file, fs: f}, nil
}

type blockLogSyncFile struct {
	fsio.File
	fs *blockLogSyncFS
}

func (fl *blockLogSyncFile) Sync() error {
	fl.fs.mu.Lock()
	hold := fl.fs.armed
	fl.fs.armed = false
	fl.fs.mu.Unlock()
	if hold {
		close(fl.fs.blocked)
		<-fl.fs.release
	}
	return fl.File.Sync()
}

// TestCommitQueueFoldsArraysIntoOneRecord pins the single store-wide
// commit pipeline: while one insert holds the commit latch (its
// manifest fsync blocked), inserts on three other arrays and a second
// insert on the same array all queue behind it, and the next latch
// holder commits all four with ONE manifest append.
func TestCommitQueueFoldsArraysIntoOneRecord(t *testing.T) {
	const side = 8
	bfs := &blockLogSyncFS{FS: fsio.OS, blocked: make(chan struct{}), release: make(chan struct{})}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.FS = bfs
	s := testStore(t, opts)
	defer s.Close()
	names := []string{"A", "B", "C", "D"}
	for _, n := range names {
		if err := s.CreateArray(schema2D(n, side)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	bfs.mu.Lock()
	bfs.armed = true
	bfs.mu.Unlock()

	type result struct {
		name string
		id   int
		want *array.Dense
		err  error
	}
	results := make(chan result, 5)
	insert := func(name string, seed int64) {
		want := crashContent(seed, side)
		id, err := s.Insert(name, DensePayload(want))
		results <- result{name, id, want, err}
	}
	go insert("A", 1)
	<-bfs.blocked
	go insert("A", 2)
	for i, n := range names[1:] {
		go insert(n, int64(3+i))
	}
	for queued := 0; queued < 4; {
		s.man.qmu.Lock()
		queued = len(s.man.queue)
		s.man.qmu.Unlock()
		time.Sleep(time.Millisecond)
	}
	close(bfs.release)
	var got []result
	for range 5 {
		r := <-results
		if r.err != nil {
			t.Fatalf("insert into %s: %v", r.name, r.err)
		}
		got = append(got, r)
	}
	if n := s.Stats().ManifestAppends - before.ManifestAppends; n != 2 {
		t.Fatalf("5 inserts on 4 arrays took %d manifest appends, want 2 (one blocked, one for the queue)", n)
	}
	check := func(label string, st *Store) {
		for _, r := range got {
			pl, err := st.Select(r.name, r.id)
			if err != nil {
				t.Fatalf("%s: %s@%d: %v", label, r.name, r.id, err)
			}
			if !pl.Dense.Equal(r.want) {
				t.Fatalf("%s: %s@%d not byte-identical", label, r.name, r.id)
			}
		}
	}
	check("live", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts.FS = nil
	r, err := Open(s.Dir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check("reopen", r)
}

// TestHealRejectsInsertsStagedBeforeIt pins the heal count: a heal
// sweeps every blob no committed version references, including those
// of an insert that staged before it and is still waiting to commit.
// That insert must be rejected, not committed over its truncated blobs.
func TestHealRejectsInsertsStagedBeforeIt(t *testing.T) {
	const side = 8
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.HealInterval = -1
	s := testStore(t, opts)
	defer s.Close()
	if err := s.CreateArray(schema2D("B", side)); err != nil {
		t.Fatal(err)
	}
	want := map[int]*array.Dense{1: crashContent(1, side)}
	if _, err := s.Insert("B", DensePayload(want[1])); err != nil {
		t.Fatal(err)
	}
	req, err := s.stageRequest(context.Background(), []MultiInsert{{Array: "B", Payloads: []Payload{DensePayload(crashContent(2, side))}}})
	if err != nil {
		t.Fatal(err)
	}
	s.degradeArray("B", errInjected)
	if _, err := s.Heal(); err != nil {
		t.Fatal(err)
	}
	s.awaitCommit(req)
	if _, err := s.settle(req); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert staged before the heal committed anyway: err=%v", err)
	}
	id, err := s.Insert("B", DensePayload(crashContent(3, side)))
	if err != nil {
		t.Fatal(err)
	}
	want[id] = crashContent(3, side)
	assertStoreAgrees(t, s, "B", want)
}

// TestSharedChunkFileSurvivesCreatorFailure pins the directory
// durability of a shared chunk file. InsertMulti(X, Y) on a fresh X
// creates X's chain files, a plain Insert(X) then appends to them, and
// the InsertMulti fails or re-stages on Y's account: Y degraded, Y
// healed since staging, or Y reorganized. The Insert commits, in the
// same drained batch as the InsertMulti or a later one. A power cut
// right after that commit must not drop the chain files' directory
// entries under the committed version.
func TestSharedChunkFileSurvivesCreatorFailure(t *testing.T) {
	const side = 8
	for _, spoil := range []string{"degraded", "healed", "reorganized"} {
		for _, sameBatch := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/sameBatch=%v", spoil, sameBatch), func(t *testing.T) {
				want := crashContent(9, side)
				// run drives the scenario on a fresh store and returns its
				// directory, the Insert's committed id and the step count
				// at that commit
				run := func(fault *fsio.Fault) (string, int, int64) {
					opts := durableOpts(true, fault)
					opts.HealInterval = -1
					s := testStore(t, opts)
					t.Cleanup(func() { _ = s.Close() })
					for _, n := range []string{"X", "Y"} {
						if err := s.CreateArray(schema2D(n, side)); err != nil {
							t.Fatal(err)
						}
					}
					for seed := int64(1); seed <= 2; seed++ {
						if _, err := s.Insert("Y", DensePayload(crashContent(seed, side))); err != nil {
							t.Fatal(err)
						}
					}
					ctx := context.Background()
					multi, err := s.stageRequest(ctx, []MultiInsert{
						{Array: "X", Payloads: []Payload{DensePayload(crashContent(3, side))}},
						{Array: "Y", Payloads: []Payload{DensePayload(crashContent(4, side))}},
					})
					if err != nil {
						t.Fatal(err)
					}
					single, err := s.stageRequest(ctx, []MultiInsert{{Array: "X", Payloads: []Payload{DensePayload(want)}}})
					if err != nil {
						t.Fatal(err)
					}
					switch spoil {
					case "degraded":
						s.degradeArray("Y", errInjected)
					case "healed":
						s.degradeArray("Y", errInjected)
						if _, err := s.Heal(); err != nil {
							t.Fatal(err)
						}
					case "reorganized":
						if err := s.Reorganize("Y", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
							t.Fatal(err)
						}
					}
					if sameBatch {
						s.man.qmu.Lock()
						s.man.queue = append(s.man.queue, multi, single)
						s.man.qmu.Unlock()
						s.man.mu.Lock()
						s.commitQueued(s.man.drain())
						s.man.mu.Unlock()
					} else {
						s.awaitCommit(multi)
					}
					if ids, _ := s.settle(multi); ids != nil {
						t.Fatalf("InsertMulti committed %v despite Y being %s", ids, spoil)
					}
					if !sameBatch {
						s.awaitCommit(single)
					}
					ids, err := s.settle(single)
					if err != nil {
						t.Fatal(err)
					}
					return s.Dir(), ids[0][0], fault.Steps()
				}
				_, _, steps := run(fsio.NewFault(0))
				// the same run again, with a power cut at the first mutation
				// after the Insert's commit
				fault := fsio.NewFault(steps + 1)
				dir, id, _ := run(fault)
				if err := fault.MkdirAll(filepath.Join(dir, "after-commit")); !errors.Is(err, fsio.ErrCrashed) {
					t.Fatalf("power cut did not land after the commit: %v", err)
				}
				r, err := Open(dir, durableOpts(true, nil))
				if err != nil {
					t.Fatalf("reopen after the power cut: %v", err)
				}
				defer r.Close()
				pl, err := r.Select("X", id)
				if err != nil {
					t.Fatalf("committed X@%d lost by the power cut: %v", id, err)
				}
				if !pl.Dense.Equal(want) {
					t.Fatalf("X@%d not byte-identical after the power cut", id)
				}
			})
		}
	}
}

// TestBranchAndMergeCommitOneRecord pins that Branch and Merge create
// their array and its versions with ONE manifest record: a failure
// while staging the versions leaves no trace (the store verifies clean
// and reopens without the array), and success costs one append.
func TestBranchAndMergeCommitOneRecord(t *testing.T) {
	const side = 8
	ffs := &failFS{FS: fsio.OS}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.HealInterval = -1
	opts.FS = ffs
	s := testStore(t, opts)
	defer s.Close()
	if err := s.CreateArray(schema2D("Src", side)); err != nil {
		t.Fatal(err)
	}
	v := []*array.Dense{crashContent(1, side), crashContent(2, side)}
	for _, d := range v {
		if _, err := s.Insert("Src", DensePayload(d)); err != nil {
			t.Fatal(err)
		}
	}
	ops := []struct {
		kind string
		run  func(name string) error
		want []*array.Dense
	}{
		{"branch", func(n string) error { return s.Branch("Src", 2, n) }, []*array.Dense{v[1]}},
		{"merge", func(n string) error { return s.Merge(n, []VersionRef{{"Src", 2}, {"Src", 1}}) }, []*array.Dense{v[1], v[0]}},
	}
	for _, op := range ops {
		bad := "Bad" + op.kind
		ffs.arm(func(fsop, path string) bool {
			return fsop == "write" && strings.Contains(path, string(filepath.Separator)+bad+string(filepath.Separator))
		})
		if err := op.run(bad); !errors.Is(err, errInjected) {
			t.Fatalf("%s with a failing chunk write: err=%v", op.kind, err)
		}
		before := s.Stats().ManifestAppends
		if err := op.run("Ok" + op.kind); err != nil {
			t.Fatal(err)
		}
		if n := s.Stats().ManifestAppends - before; n != 1 {
			t.Fatalf("%s took %d manifest appends, want 1", op.kind, n)
		}
	}
	if rep, err := s.VerifyManifest(); err != nil || !rep.Ok() {
		t.Fatalf("VerifyManifest after failed branch/merge: %+v, %v", rep, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts.FS = nil
	r, err := Open(s.Dir(), opts)
	if err != nil {
		t.Fatalf("reopen after failed branch/merge: %v", err)
	}
	defer r.Close()
	for _, op := range ops {
		if _, err := r.Versions("Bad" + op.kind); err == nil {
			t.Fatalf("failed %s left array %q behind", op.kind, "Bad"+op.kind)
		}
		for i, want := range op.want {
			pl, err := r.Select("Ok"+op.kind, i+1)
			if err != nil {
				t.Fatal(err)
			}
			if !pl.Dense.Equal(want) {
				t.Fatalf("%s version %d not byte-identical after reopen", op.kind, i+1)
			}
		}
	}
}

// blockProbeFS blocks the first heal probe file creation until release
// is closed, signalling blocked once it is stuck there.
type blockProbeFS struct {
	fsio.FS
	once    sync.Once
	blocked chan struct{}
	release chan struct{}
}

func (f *blockProbeFS) Create(path string) (fsio.File, error) {
	if filepath.Base(path) == healProbeFile {
		f.once.Do(func() {
			close(f.blocked)
			<-f.release
		})
	}
	return f.FS.Create(path)
}

// TestHealProbeDoesNotStallOtherArrays pins that a heal's disk probe
// runs outside the commit latch: while the probe under a degraded array
// hangs, inserts on a healthy array still commit.
func TestHealProbeDoesNotStallOtherArrays(t *testing.T) {
	const side = 8
	bfs := &blockProbeFS{FS: fsio.OS, blocked: make(chan struct{}), release: make(chan struct{})}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.HealInterval = -1
	opts.FS = bfs
	s := testStore(t, opts)
	defer s.Close()
	for _, n := range []string{"X", "Y"} {
		if err := s.CreateArray(schema2D(n, side)); err != nil {
			t.Fatal(err)
		}
	}
	s.degradeArray("X", errInjected)
	healed := make(chan error, 1)
	go func() {
		_, err := s.Heal()
		healed <- err
	}()
	<-bfs.blocked
	inserted := make(chan error, 1)
	go func() {
		_, err := s.Insert("Y", DensePayload(crashContent(1, side)))
		inserted <- err
	}()
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(bfs.release)
		t.Fatal("an insert on a healthy array stalled behind another array's heal probe")
	}
	close(bfs.release)
	if err := <-healed; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("X", DensePayload(crashContent(2, side))); err != nil {
		t.Fatalf("insert after the heal: %v", err)
	}
}
