package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
)

// Tests for the store-wide manifest commit log: replay across reopen,
// snapshot rotation, the InsertMulti cross-array commit, append-failure
// poisoning and heal, deep verification, and the in-place migration of
// legacy per-array stores — including a full crash/fault matrix over
// the migration itself (the legacy → manifest upgrade must be atomic:
// a crash leaves the store either fully legacy or fully migrated, with
// byte-identical reads either way).

// buildLegacyStore writes a legacy store — one versions.json per
// array, no manifest — and returns the expected contents. New stores
// are always born manifest-format, so it builds one and downgrades it
// with downgradeToLegacy.
func buildLegacyStore(t *testing.T, dir string, side int64) map[string][]*array.Dense {
	t.Helper()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]*array.Dense{}
	for _, name := range []string{"LegA", "LegB"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			c := crashContent(seed*int64(len(name)), side)
			if _, err := s.Insert(name, DensePayload(c)); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], c)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeToLegacy(t, dir)
	if _, err := os.Stat(filepath.Join(dir, currentFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("downgraded store still has %s (err=%v)", currentFile, err)
	}
	for name := range want {
		if _, err := os.Stat(filepath.Join(dir, name, metaFile)); err != nil {
			t.Fatalf("legacy store missing %s/%s: %v", name, metaFile, err)
		}
	}
	return want
}

// downgradeToLegacy rewrites a closed manifest store in the legacy
// layout: every replayed arrayMeta becomes its array's versions.json,
// and CURRENT and the MANIFEST-* files are deleted.
func downgradeToLegacy(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range s.man.state {
		raw, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name, metaFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == currentFile || strings.HasPrefix(e.Name(), manifestPrefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkContents asserts every expected version reads back
// byte-identical (version ids are 1-based insertion order here).
func checkContents(t *testing.T, s *Store, want map[string][]*array.Dense, label string) {
	t.Helper()
	for name, versions := range want {
		infos, err := s.Versions(name)
		if err != nil {
			t.Fatalf("%s: Versions(%s): %v", label, name, err)
		}
		if len(infos) != len(versions) {
			t.Fatalf("%s: %s has %d versions, want %d", label, name, len(infos), len(versions))
		}
		for i, c := range versions {
			got, err := s.Select(name, i+1)
			if err != nil {
				t.Fatalf("%s: %s@%d unreadable: %v", label, name, i+1, err)
			}
			if !got.Dense.Equal(c) {
				t.Fatalf("%s: %s@%d not byte-identical", label, name, i+1)
			}
		}
	}
}

// TestManifestReplayAcrossReopen pins the basic replay contract: every
// commit made through the manifest is visible after reopen (durable
// and non-durable), and the chain deep-verifies clean.
func TestManifestReplayAcrossReopen(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.man == nil {
		t.Fatal("fresh durable store did not initialize the manifest")
	}
	want := map[string][]*array.Dense{}
	for _, name := range []string{"R1", "R2", "R3"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 4; seed++ {
			c := crashContent(seed+int64(len(want)), side)
			if _, err := s.Insert(name, DensePayload(c)); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], c)
		}
	}
	// a deletion must replay too
	if err := s.CreateArray(schema2D("Doomed", side)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteArray("Doomed"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || !rep.Ok() {
		t.Fatalf("live manifest fails deep verify: %+v", rep)
	}
	if rep.Arrays != 3 || rep.LogRecords == 0 {
		t.Fatalf("unexpected manifest shape: %+v", rep)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, durable := range []bool{false, true} {
		ropts := opts
		ropts.Durability = durable
		r, err := Open(dir, ropts)
		if err != nil {
			t.Fatalf("reopen durable=%v: %v", durable, err)
		}
		if r.man == nil {
			t.Fatalf("reopen durable=%v lost the manifest", durable)
		}
		checkContents(t, r, want, fmt.Sprintf("reopen durable=%v", durable))
		if _, ok := r.arrays["Doomed"]; ok {
			t.Fatalf("reopen durable=%v resurrected a dropped array", durable)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManifestRotation forces snapshot rotations with a tiny log
// threshold and asserts the chain survives them: one live generation,
// superseded files swept on durable reopen, every commit replayed.
func TestManifestRotation(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.ManifestRotateBytes = 2 << 10
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("Rot", side)); err != nil {
		t.Fatal(err)
	}
	var want []*array.Dense
	for seed := int64(1); seed <= 20; seed++ {
		c := crashContent(seed, side)
		if _, err := s.Insert("Rot", DensePayload(c)); err != nil {
			t.Fatal(err)
		}
		want = append(want, c)
	}
	if got := s.Stats().ManifestRotations; got == 0 {
		t.Fatal("20 commits at a 2 KB threshold never rotated the log")
	}
	gen := s.man.gen
	if gen < 2 {
		t.Fatalf("generation still %d after rotations", gen)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen after rotations: %v", err)
	}
	checkContents(t, r, map[string][]*array.Dense{"Rot": want}, "post-rotation reopen")
	rep, err := r.VerifyManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("rotated manifest fails deep verify: %+v", rep)
	}
	if len(rep.StrayFiles) != 0 {
		t.Fatalf("durable reopen left manifest strays: %v", rep.StrayFiles)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertMultiBasic pins the happy path: ids per array in payload
// order, visible immediately and after reopen, one manifest fsync for
// the whole batch.
func TestInsertMultiBasic(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	contents := map[string][]*array.Dense{
		"A": {crashContent(1, side), crashContent(2, side)},
		"B": {crashContent(3, side)},
		"C": {crashContent(4, side)},
	}
	out, err := s.InsertMulti([]MultiInsert{
		{Array: "A", Payloads: []Payload{DensePayload(contents["A"][0]), DensePayload(contents["A"][1])}},
		{Array: "B", Payloads: []Payload{DensePayload(contents["B"][0])}},
		{Array: "C", Payloads: []Payload{DensePayload(contents["C"][0])}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out["A"]) != "[1 2]" || fmt.Sprint(out["B"]) != "[1]" || fmt.Sprint(out["C"]) != "[1]" {
		t.Fatalf("unexpected id assignment: %v", out)
	}
	st := s.Stats()
	if got := st.ManifestFsyncs - before.ManifestFsyncs; got != 1 {
		t.Fatalf("cross-array batch paid %d manifest fsyncs, want exactly 1", got)
	}
	// the whole cross-array batch is ONE commit record (with one op per
	// member array) and one physical append
	if got := st.ManifestRecords - before.ManifestRecords; got != 1 {
		t.Fatalf("cross-array batch paid %d commit records, want exactly 1", got)
	}
	if got := st.ManifestAppends - before.ManifestAppends; got != 1 {
		t.Fatalf("cross-array batch paid %d appends, want exactly 1", got)
	}
	checkContents(t, s, contents, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkContents(t, r, contents, "reopen")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// validation errors
	if _, err := s.InsertMulti(nil); err == nil {
		t.Fatal("empty InsertMulti accepted")
	}
	if _, err := r.InsertMulti([]MultiInsert{
		{Array: "A", Payloads: []Payload{DensePayload(crashContent(9, side))}},
		{Array: "A", Payloads: []Payload{DensePayload(crashContent(9, side))}},
	}); err == nil {
		t.Fatal("duplicate array name accepted")
	}
}

// manifestWriteFaultFS wraps a base FS and, while armed, fails the
// Write of any file opened for append under a MANIFEST-*.log name —
// the one failure mode that is genuinely uncertain (the record may be
// partially durable), which open-level fakes like fsio.Flaky cannot
// reach without also faulting the benign staging writes first.
type manifestWriteFaultFS struct {
	fsio.FS
	mu    sync.Mutex
	armed bool
}

func (f *manifestWriteFaultFS) arm(on bool) {
	f.mu.Lock()
	f.armed = on
	f.mu.Unlock()
}

func (f *manifestWriteFaultFS) hot() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

func (f *manifestWriteFaultFS) Append(path string) (fsio.File, error) {
	file, err := f.FS.Append(path)
	base := filepath.Base(path)
	if err != nil || !strings.HasPrefix(base, manifestPrefix) || !strings.HasSuffix(base, ".log") {
		return file, err
	}
	return &manifestWriteFaultFile{File: file, fs: f}, nil
}

type manifestWriteFaultFile struct {
	fsio.File
	fs *manifestWriteFaultFS
}

func (fl *manifestWriteFaultFile) Write(p []byte) (int, error) {
	if fl.fs.hot() {
		return 0, fsio.ErrIO
	}
	return fl.File.Write(p)
}

// TestManifestAppendFailureDegradesAndHeals is the manifest analog of
// TestInsertMetaCommitFailureRollsBack: a failed log-append WRITE is an
// uncertain commit (the record may be partially durable), so the store
// must refuse further writes until Heal truncates the log back to its
// last known-good offset and re-verifies.
func TestManifestAppendFailureDegradesAndHeals(t *testing.T) {
	const side = 8
	ffs := &manifestWriteFaultFS{FS: fsio.OS}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.FS = ffs
	opts.HealInterval = -1
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateArray(schema2D("H", side)); err != nil {
		t.Fatal(err)
	}
	good := crashContent(1, side)
	if _, err := s.Insert("H", DensePayload(good)); err != nil {
		t.Fatal(err)
	}

	// fail exactly the manifest log append: staging succeeds, the
	// commit point does not, and the outcome is uncertain
	ffs.arm(true)
	if _, err := s.Insert("H", DensePayload(crashContent(2, side))); err == nil {
		t.Fatal("insert with a failing manifest append succeeded")
	}
	if h := s.Health(); !h.Degraded || !h.StoreDegraded {
		t.Fatalf("store not degraded after uncertain manifest append: %+v", h)
	}
	if _, err := s.Insert("H", DensePayload(crashContent(2, side))); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded insert error = %v, want ErrDegraded", err)
	}
	// committed state keeps reading
	got, err := s.Select("H", 1)
	if err != nil || !got.Dense.Equal(good) {
		t.Fatalf("degraded read broken: %v", err)
	}

	ffs.arm(false)
	if _, err := s.Heal(); err != nil {
		t.Fatalf("Heal after disk recovery: %v", err)
	}
	if h := s.Health(); h.Degraded {
		t.Fatalf("still degraded after Heal: %+v", h)
	}
	next := crashContent(3, side)
	id, err := s.Insert("H", DensePayload(next))
	if err != nil {
		t.Fatalf("insert after heal: %v", err)
	}
	got, err = s.Select("H", id)
	if err != nil || !got.Dense.Equal(next) {
		t.Fatalf("post-heal version unreadable: %v", err)
	}
	rep, err := s.VerifyManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("healed manifest fails deep verify: %+v", rep)
	}
}

// TestLegacyMigration pins the in-place upgrade: a legacy per-array
// store opened durably migrates to the manifest on open, reads stay byte-identical, the per-array versions.json files
// are gone, and the migrated store keeps working and deep-verifies.
func TestLegacyMigration(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	want := buildLegacyStore(t, dir, side)

	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("migrating open: %v", err)
	}
	if s.man == nil {
		t.Fatal("durable open of a legacy store did not migrate to the manifest")
	}
	checkContents(t, s, want, "migrated")
	for name := range want {
		if _, err := os.Stat(filepath.Join(dir, name, metaFile)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("migration left %s/%s behind (err=%v)", name, metaFile, err)
		}
	}
	// the migrated store accepts cross-array batches immediately
	extra := map[string]*array.Dense{"LegA": crashContent(91, side), "LegB": crashContent(92, side)}
	out, err := s.InsertMulti([]MultiInsert{
		{Array: "LegA", Payloads: []Payload{DensePayload(extra["LegA"])}},
		{Array: "LegB", Payloads: []Payload{DensePayload(extra["LegB"])}},
	})
	if err != nil {
		t.Fatalf("InsertMulti on migrated store: %v", err)
	}
	for name, c := range extra {
		got, err := s.Select(name, out[name][0])
		if err != nil || !got.Dense.Equal(c) {
			t.Fatalf("migrated store post-insert read %s: %v", name, err)
		}
	}
	rep, err := s.VerifyManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || !rep.Ok() {
		t.Fatalf("migrated manifest fails deep verify: %+v", rep)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// a pre-existing legacy store opened NON-durably must stay legacy
	// (read-only tooling never rewrites the on-disk format)
	legacyDir := t.TempDir()
	want2 := buildLegacyStore(t, legacyDir, side)
	ro, err := Open(legacyDir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ro.man != nil {
		t.Fatal("non-durable open rewrote a legacy store's format")
	}
	checkContents(t, ro, want2, "legacy non-durable")
	if _, err := os.Stat(filepath.Join(legacyDir, currentFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("non-durable open wrote CURRENT")
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationCrashMatrix is the satellite crash matrix over the
// legacy → manifest upgrade: every filesystem step of the migrating
// open is crashed once; after each crash the directory must be in
// exactly one of two states — fully legacy (no committed CURRENT) or
// fully migrated — and a durable reopen must serve every version
// byte-identical either way.
func TestMigrationCrashMatrix(t *testing.T) {
	const side = 8

	// template legacy store, rebuilt fresh per crash point (migration
	// mutates in place)
	build := func(t *testing.T, dir string) map[string][]*array.Dense {
		return buildLegacyStore(t, dir, side)
	}

	// counting run
	dir := t.TempDir()
	build(t, dir)
	counter := fsio.NewFault(0)
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.FS = counter
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("counting migration failed: %v", err)
	}
	if s.man == nil {
		t.Fatal("counting open did not migrate")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	total := counter.Steps()
	if total < 5 {
		t.Fatalf("migration only has %d fault points", total)
	}
	t.Logf("migration crash matrix: %d fault injection points", total)

	for n := int64(1); n <= total; n++ {
		dir := t.TempDir()
		want := build(t, dir)
		fault := fsio.NewFault(n)
		fopts := opts
		fopts.FS = fault
		if _, err := Open(dir, fopts); err == nil {
			// an open may only succeed if the crash landed in a step
			// whose failure it tolerates; the store is then migrated
			if !fault.Crashed() {
				t.Fatalf("step %d/%d: crash never fired", n, total)
			}
		}

		// the on-disk state must be exactly one of the two formats:
		// a committed CURRENT means the manifest is authoritative;
		// no CURRENT means every per-array versions.json must still be
		// intact (migration must not mutate legacy state pre-commit)
		migrated := true
		if _, err := readCurrent(dir); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("step %d: torn CURRENT after crash: %v", n, err)
			}
			migrated = false
		}
		if !migrated {
			for name := range want {
				if _, err := os.Stat(filepath.Join(dir, name, metaFile)); err != nil {
					t.Fatalf("step %d: neither format complete: CURRENT absent and %s/%s gone", n, name, metaFile)
				}
			}
		}

		ropts := smallOpts()
		ropts.ChunkBytes = 1 << 10
		ropts.Durability = true
		r, err := Open(dir, ropts)
		if err != nil {
			t.Fatalf("step %d: reopen after migration crash (migrated=%v): %v", n, migrated, err)
		}
		checkContents(t, r, want, fmt.Sprintf("step %d (migrated=%v)", n, migrated))
		// and the reopened store is writable (it completed migration)
		if _, err := r.Insert("LegA", DensePayload(crashContent(99, side))); err != nil {
			t.Fatalf("step %d: insert after recovery: %v", n, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrationTransientFaults is the fsio.Flaky counterpart: a
// scripted EIO at every step of the migrating open must fail the open
// cleanly (no half-migrated store object), leave the directory
// readable in one format or the other, and a healthy retry must
// complete the migration with byte-identical reads.
func TestMigrationTransientFaults(t *testing.T) {
	const side = 8

	// counting run
	dir := t.TempDir()
	buildLegacyStore(t, dir, side)
	counting := fsio.NewFlaky(fsio.OS)
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.FS = counting
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("counting migration failed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	total := counting.Steps()
	t.Logf("migration transient matrix: %d fault injection points", total)

	for n := int64(1); n <= total; n++ {
		dir := t.TempDir()
		want := buildLegacyStore(t, dir, side)
		flaky := fsio.NewFlaky(fsio.OS)
		flaky.FailAt(n, fsio.ErrIO)
		fopts := opts
		fopts.FS = flaky
		s, err := Open(dir, fopts)
		if err == nil {
			// the fault landed in a step whose failure the open
			// tolerates; the store must be whole
			if flaky.Injected() == 0 {
				t.Fatalf("step %d/%d: fault never fired", n, total)
			}
			checkContents(t, s, want, fmt.Sprintf("transient step %d (tolerated)", n))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}

		// healthy retry on the plain filesystem
		ropts := opts
		ropts.FS = fsio.OS
		r, rerr := Open(dir, ropts)
		if rerr != nil {
			t.Fatalf("step %d: retry open: %v", n, rerr)
		}
		if r.man == nil {
			t.Fatalf("step %d: retry did not complete migration", n)
		}
		checkContents(t, r, want, fmt.Sprintf("transient step %d (retry)", n))
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// treeBytes maps every path under dir to its contents ("" for
// directories).
func treeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel] = ""
			return nil
		}
		raw, err := os.ReadFile(path)
		out[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLegacyStoreImportOnly pins the rule that a store without a
// manifest is never written: a non-durable open of a legacy store
// serves byte-identical reads, refuses every mutation with ErrDegraded,
// and leaves every file untouched; a durable open then migrates it and
// accepts writes.
func TestLegacyStoreImportOnly(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	want := buildLegacyStore(t, dir, side)
	before := treeBytes(t, dir)

	ro, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkContents(t, ro, want, "import-only")
	payload := DensePayload(crashContent(50, side))
	mutations := map[string]func() error{
		"CreateArray": func() error { return ro.CreateArray(schema2D("New", side)) },
		"Insert":      func() error { _, err := ro.Insert("LegA", payload); return err },
		"InsertMulti": func() error {
			_, err := ro.InsertMulti([]MultiInsert{
				{Array: "LegA", Payloads: []Payload{payload}},
				{Array: "LegB", Payloads: []Payload{payload}},
			})
			return err
		},
		"DeleteVersion": func() error { return ro.DeleteVersion("LegA", 1) },
		"DeleteArray":   func() error { return ro.DeleteArray("LegB") },
		"Reorganize":    func() error { return ro.Reorganize("LegA", ReorganizeOptions{Policy: PolicyOptimal}) },
		"Compact":       func() error { return ro.Compact("LegA") },
	}
	for op, mutate := range mutations {
		if err := mutate(); !errors.Is(err, ErrDegraded) {
			t.Fatalf("%s on an import-only legacy store returned %v, want ErrDegraded", op, err)
		}
	}
	checkContents(t, ro, want, "import-only after refused writes")
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if after := treeBytes(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("non-durable open of a legacy store changed its files")
	}

	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkContents(t, s, want, "migrated")
	if _, err := s.InsertMulti([]MultiInsert{
		{Array: "LegA", Payloads: []Payload{payload}},
		{Array: "LegB", Payloads: []Payload{payload}},
	}); err != nil {
		t.Fatalf("InsertMulti after a durable open migrated the store: %v", err)
	}
	if err := s.CreateArray(schema2D("New", side)); err != nil {
		t.Fatalf("CreateArray after migration: %v", err)
	}
}

// TestLegacyCrashDebrisRecoveredThroughManifest durably opens a legacy
// store left behind by a crash: a chunk file lost its tail, a
// DeleteArray committed its tombstone rename but not the removal, and
// a CreateArray never wrote its versions.json. Migration imports only
// the live arrays, the root sweep removes the tombstone and the
// half-created directory, and recovery drops the damaged version with a
// manifest record — never by rewriting versions.json — so a reopen
// agrees.
func TestLegacyCrashDebrisRecoveredThroughManifest(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	want := buildLegacyStore(t, dir, side)
	// every version appends one frame to LegA's single chain file, so
	// cutting its last byte damages exactly the newest version
	chunks := filepath.Join(dir, "LegA", chunksDirName(0))
	entries, err := os.ReadDir(chunks)
	if err != nil || len(entries) != 1 {
		t.Fatalf("LegA chunk files: %v (err=%v), want one chain file", entries, err)
	}
	chain := filepath.Join(chunks, entries[0].Name())
	info, err := os.Stat(chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(chain, info.Size()-1); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "LegB"), filepath.Join(dir, "LegB.deleting")); err != nil {
		t.Fatal(err)
	}
	delete(want, "LegB")
	if err := os.MkdirAll(filepath.Join(dir, "Half", chunksDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	want["LegA"] = want["LegA"][:2]

	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Recovery().DroppedVersions; got != 1 {
		t.Fatalf("recovery dropped %d versions, want the one torn version", got)
	}
	if got := s.Stats().ManifestRecords; got != 1 {
		t.Fatalf("recovery committed %d manifest records, want one for the dropped version", got)
	}
	checkContents(t, s, want, "recovered")
	if got := s.ListArrays(); !reflect.DeepEqual(got, []string{"LegA"}) {
		t.Fatalf("migrated arrays %v, want [LegA]", got)
	}
	for _, debris := range []string{"LegB.deleting", "Half", filepath.Join("LegA", metaFile)} {
		if _, err := os.Stat(filepath.Join(dir, debris)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("durable open left %s behind (err=%v)", debris, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Recovery().DroppedVersions; got != 0 {
		t.Fatalf("reopen dropped %d more versions", got)
	}
	checkContents(t, r, want, "reopened")
}

// TestManifestDamagedRecordFailsOpen pins the replay rule for a
// checksum-invalid frame that valid records follow: it is a damaged
// committed record, not a torn tail. VerifyManifest reports it, and
// both kinds of open fail naming the offset before truncating the log
// or sweeping the arrays the records behind it commit.
func TestManifestDamagedRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	names := []string{"A", "B", "C"}
	for _, n := range names {
		if err := s.CreateArray(schema2D(n, 8)); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, manifestLogName(s.man.gen))
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// flip one byte inside the first record's payload
	raw[frameHeaderLen+5] ^= 0xff
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyManifest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || !strings.Contains(rep.Problems[0], "offset 0") {
		t.Fatalf("verify missed the damaged record: ok=%v torn=%d problems=%v", rep.Ok(), rep.TornBytes, rep.Problems)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, durable := range []bool{true, false} {
		o := opts
		o.Durability = durable
		if r, err := Open(dir, o); err == nil {
			r.Close()
			t.Fatalf("durable=%v open accepted a damaged manifest record", durable)
		} else if !strings.Contains(err.Error(), "offset 0") {
			t.Fatalf("durable=%v open error does not name the offset: %v", durable, err)
		}
	}
	after, err := os.ReadFile(logPath)
	if err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("failed opens modified the log (err=%v)", err)
	}
	for _, n := range names {
		if info, err := os.Stat(filepath.Join(dir, n)); err != nil || !info.IsDir() {
			t.Fatalf("failed open swept array directory %s (err=%v)", n, err)
		}
	}
}
