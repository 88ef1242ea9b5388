package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"arrayvers/internal/cache"
	"arrayvers/internal/fsio"
)

// Regression tests for insert staging through the decoded-chunk LRU:
// committed delta bases resolve from the cache (so an insert's cost
// does not grow with history), committed versions are published
// write-through, and staged version ids never reach the cache.

// cachedOpts is a cached AutoDelta store with several chunks per
// version.
func cachedOpts() Options {
	o := smallOpts()
	o.ChunkBytes = 1 << 10
	o.CacheBytes = 4 << 20
	return o
}

// cachedChunks counts the LRU entries held for one version of a dense
// array under any epoch the array has had, probing every chunk key.
func cachedChunks(t *testing.T, s *Store, name string, id int) int {
	t.Helper()
	s.mu.RLock()
	st, epoch := s.arrays[name], s.epochs[name]
	s.mu.RUnlock()
	ck, err := st.chunker()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for e := uint64(0); e <= epoch; e++ {
		for _, attr := range st.Schema.Attrs {
			for _, origin := range ck.All() {
				k := cache.Key{Array: name, Epoch: e, Version: id, Attr: attr.Name, Chunk: ck.Key(origin)}
				if _, ok := s.chunkCache.Get(k); ok {
					n++
				}
			}
		}
	}
	return n
}

// TestInsertCostIndependentOfHistory pins the history-independent
// insert: on a cached AutoDelta store the chunk reads one insert pays
// to resolve its delta base must not depend on how long the chain is.
// When staging bypassed the cache and unwound the whole chain from
// disk, insert #10 read 36 chunks and insert #200 read 796 (4 per
// link), and through InsertMulti (two arrays per call) 72 and 1592.
func TestInsertCostIndependentOfHistory(t *testing.T) {
	const (
		side     = 32 // 4 chunks of 1 KiB per version
		chunks   = 4
		versions = 200
	)
	series := evolvingVersions(versions, side, 31)
	chainOf := func(t *testing.T, s *Store, name string) {
		t.Helper()
		infos, err := s.Versions(name)
		if err != nil {
			t.Fatal(err)
		}
		last := infos[len(infos)-1]
		if !slices.Contains(last.DeltaBases, last.ID-1) {
			t.Fatalf("version %d deltas against %v, not its predecessor: no chain was built", last.ID, last.DeltaBases)
		}
	}
	check := func(t *testing.T, reads map[int]int64, arrays int) {
		t.Helper()
		if reads[10] != reads[versions] {
			t.Fatalf("insert #10 read %d chunks, insert #%d read %d: insert cost grows with history",
				reads[10], versions, reads[versions])
		}
		if reads[versions] > int64(arrays*chunks) {
			t.Fatalf("insert #%d read %d chunks, more than one per chunk (%d)", versions, reads[versions], arrays*chunks)
		}
	}

	t.Run("Insert", func(t *testing.T) {
		s := testStore(t, cachedOpts())
		defer s.Close()
		if err := s.CreateArray(schema2D("H", side)); err != nil {
			t.Fatal(err)
		}
		reads := map[int]int64{}
		for k, v := range series {
			before := s.Stats().ChunksRead
			if _, err := s.Insert("H", DensePayload(v)); err != nil {
				t.Fatal(err)
			}
			reads[k+1] = s.Stats().ChunksRead - before
		}
		chainOf(t, s, "H")
		check(t, reads, 1)
	})

	t.Run("InsertMulti", func(t *testing.T) {
		s := testStore(t, cachedOpts())
		defer s.Close()
		names := []string{"M0", "M1"}
		for _, n := range names {
			if err := s.CreateArray(schema2D(n, side)); err != nil {
				t.Fatal(err)
			}
		}
		reads := map[int]int64{}
		for k, v := range series {
			before := s.Stats().ChunksRead
			batch := make([]MultiInsert, len(names))
			for i, n := range names {
				batch[i] = MultiInsert{Array: n, Payloads: []Payload{DensePayload(v)}}
			}
			if _, err := s.InsertMulti(batch); err != nil {
				t.Fatal(err)
			}
			reads[k+1] = s.Stats().ChunksRead - before
		}
		for _, n := range names {
			chainOf(t, s, n)
		}
		check(t, reads, len(names))
	})
}

// isManifestLog matches the store-wide manifest log files.
func isManifestLog(path string) bool {
	base := filepath.Base(path)
	return strings.HasPrefix(base, manifestPrefix) && strings.HasSuffix(base, ".log")
}

// TestFailedCommitIDReuseServesNewContent fails one insert's commit
// twice — a benign log-open fault, then an uncertain log-write fault
// healed afterwards — so the next insert reuses the id with different
// content. No failure may leave the id in the cache, and the reused id
// must read back byte-exactly.
func TestFailedCommitIDReuseServesNewContent(t *testing.T) {
	const side = 32
	ffs := &failFS{FS: fsio.OS}
	opts := cachedOpts()
	opts.Durability = true
	opts.FS = ffs
	opts.HealInterval = -1
	s := testStore(t, opts)
	defer s.Close()
	if err := s.CreateArray(schema2D("R", side)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("R", DensePayload(crashContent(1, side))); err != nil {
		t.Fatal(err)
	}
	for i, op := range []string{"append", "write"} {
		ffs.arm(func(o, path string) bool { return o == op && isManifestLog(path) })
		if _, err := s.Insert("R", DensePayload(crashContent(int64(10+i), side))); !errors.Is(err, errInjected) {
			t.Fatalf("%s fault: insert returned %v, want the injected failure", op, err)
		}
		if op == "write" {
			if _, err := s.Heal(); err != nil {
				t.Fatalf("heal: %v", err)
			}
		}
		if n := cachedChunks(t, s, "R", 2); n != 0 {
			t.Fatalf("%s fault: %d chunks of the failed version 2 reached the cache", op, n)
		}
	}
	want := crashContent(20, side)
	id, err := s.Insert("R", DensePayload(want))
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("insert after the failed commits got id %d, want the reclaimed id 2", id)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := s.Select("R", 2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Dense.Bytes(), want.Bytes()) {
			t.Fatalf("select %d of the reused id 2 returned stale content", pass)
		}
	}
}

// TestFailedBatchCachesNoStagedID fails the commit of a batch whose
// second member deltas against the first — a read of a staged base —
// through both staging paths. Neither staged id may reach the cache.
func TestFailedBatchCachesNoStagedID(t *testing.T) {
	const side = 32
	for _, multi := range []bool{false, true} {
		t.Run(fmt.Sprintf("multi=%v", multi), func(t *testing.T) {
			ffs := &failFS{FS: fsio.OS}
			opts := cachedOpts()
			opts.FS = ffs
			s := testStore(t, opts)
			defer s.Close()
			if err := s.CreateArray(schema2D("B", side)); err != nil {
				t.Fatal(err)
			}
			series := evolvingVersions(3, side, 41)
			if _, err := s.Insert("B", DensePayload(series[0])); err != nil {
				t.Fatal(err)
			}
			batch := []Payload{DensePayload(series[1]), DensePayload(series[2])}
			insert := func() error {
				if multi {
					_, err := s.InsertMulti([]MultiInsert{{Array: "B", Payloads: batch}})
					return err
				}
				_, err := s.InsertBatch("B", batch)
				return err
			}
			ffs.arm(func(op, path string) bool { return op == "append" && isManifestLog(path) })
			if err := insert(); !errors.Is(err, errInjected) {
				t.Fatalf("batch under a commit fault returned %v, want the injected failure", err)
			}
			for _, id := range []int{2, 3} {
				if n := cachedChunks(t, s, "B", id); n != 0 {
					t.Fatalf("%d chunks of staged version %d reached the cache", n, id)
				}
			}
			// the same batch committed: its second member deltas against
			// the first, so the failed staging did read a staged base
			if err := insert(); err != nil {
				t.Fatal(err)
			}
			infos, err := s.Versions("B")
			if err != nil {
				t.Fatal(err)
			}
			if last := infos[len(infos)-1]; last.ID != 3 || !slices.Contains(last.DeltaBases, 2) {
				t.Fatalf("version %d deltas against %v, want a base of 2", last.ID, last.DeltaBases)
			}
			for i, want := range series {
				got, err := s.Select("B", i+1)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Dense.Equal(want) {
					t.Fatalf("version %d mismatch", i+1)
				}
			}
		})
	}
}

// TestWriteThroughDoesNotAliasPayload mutates the caller's plane after
// a successful insert: the published chunks are private copies, so a
// select of the version is unchanged and served without a chunk read.
func TestWriteThroughDoesNotAliasPayload(t *testing.T) {
	const side = 32
	s := testStore(t, cachedOpts())
	defer s.Close()
	if err := s.CreateArray(schema2D("W", side)); err != nil {
		t.Fatal(err)
	}
	series := evolvingVersions(2, side, 51)
	var id int
	for _, v := range series {
		var err error
		if id, err = s.Insert("W", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	payload := series[len(series)-1]
	want := payload.Clone()
	for i := int64(0); i < payload.NumCells(); i++ {
		payload.SetBits(i, -1)
	}
	before := s.Stats().ChunksRead
	got, err := s.Select("W", id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense.Equal(want) {
		t.Fatal("mutating the caller's payload changed the committed version")
	}
	if n := s.Stats().ChunksRead - before; n != 0 {
		t.Fatalf("select of the newest version read %d chunks; write-through should serve it from the cache", n)
	}
}
