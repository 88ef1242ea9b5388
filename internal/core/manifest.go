package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The store-wide manifest log — the store's only commit protocol.
//
// Legacy stores gave every array its own commit point: a staged
// versions.json renamed into place. That shape made cross-array
// atomicity impossible by construction and charged every touched array
// its own fsync pair. The manifest replaces the N per-array rename
// commits with one append-only, checksummed log at the store root,
// following the LSM-manifest idiom:
//
//	CURRENT            {"gen":N} — names the live snapshot/log pair;
//	                   replaced by tmp-write + rename + root sync
//	MANIFEST-N.snap    one AVC1 frame: JSON {seq, arrays} — the full
//	                   store state as of sequence number seq
//	MANIFEST-N.log     AVC1 frames, one per commit: JSON
//	                   {seq, ops:[{name, drop?, meta?}...]}
//
// Every record carries whole arrayMeta documents (last-writer-wins on
// replay), reusing the PR 3 chunk frame format — 13-byte header with
// magic, version, payload length, and CRC32-C — so a torn append is
// detected exactly like a torn chunk tail. Sequence numbers are
// contiguous: the snapshot stores the last sequence it covers and the
// log must continue at seq+1, so replay can tell a clean tail from a
// missing record.
//
// THE commit point of every mutation is the manifest append (commit,
// fsynced under Durability), made under the one commit latch (mu).
// Chunk payloads are still synced before it, so the data-first
// ordering invariant survives: once a record is durable, everything it
// references is too. Because all arrays share the one log, a single
// record can commit many arrays: the insert commit queue's latch
// holder folds every queued insert, on any array, into one record and
// one fsync, and an InsertMulti's parts land in the same record with
// all-or-nothing visibility.
//
// Replay (replayManifest, shared by Open and VerifyManifest) stops at
// the first checksum-invalid frame only when nothing valid follows it:
// a torn append is always the tail. A valid frame behind a bad one is
// a damaged committed record, and the open fails rather than truncate
// the committed records behind it.
//
// Failure handling splits at the first written byte: an append that
// fails before any byte is written (open failure) is benign; a failed write,
// fsync, or close leaves the log tail uncertain, so the manifest is
// poisoned — the whole store degrades read-only — until a heal
// truncates the log back to the last known-good byte. A failed CURRENT
// flip during rotation likewise poisons with the pending generation
// recorded, and the heal retries the (idempotent) flip.

const (
	// currentFile points at the live manifest generation; its presence
	// is what marks a store directory as manifest-format.
	currentFile = "CURRENT"
	// manifestPrefix prefixes the per-generation snapshot/log files.
	manifestPrefix = "MANIFEST-"
	// defaultManifestRotateBytes is the log size that triggers a
	// snapshot rotation when Options.ManifestRotateBytes is zero.
	defaultManifestRotateBytes = 4 << 20
)

func manifestSnapName(gen int) string { return fmt.Sprintf("%s%06d.snap", manifestPrefix, gen) }
func manifestLogName(gen int) string  { return fmt.Sprintf("%s%06d.log", manifestPrefix, gen) }

// manifestOp is one array's part of a commit record: either its full
// replacement metadata document or a drop marker.
type manifestOp struct {
	Name string     `json:"name"`
	Drop bool       `json:"drop,omitempty"`
	Meta *arrayMeta `json:"meta,omitempty"`
}

// manifestRecord is one committed mutation: every op in it becomes
// visible atomically at replay.
type manifestRecord struct {
	Seq int64        `json:"seq"`
	Ops []manifestOp `json:"ops"`
}

// manifestSnapshot is the full store state a generation starts from.
// Seq is the last sequence number the snapshot covers; the
// generation's log continues at Seq+1.
type manifestSnapshot struct {
	Seq    int64        `json:"seq"`
	Arrays []manifestOp `json:"arrays"`
}

// manifest is the store-wide commit log and the store's one commit
// pipeline. Its writer latch (mu) is THE commit latch: every metadata
// writer — the insert queue's latch holder, DeleteVersion, the
// Reorganize and Compact commits, CreateArray, DeleteArray,
// Branch/Merge, heal and recovery — holds it across its append, so
// nothing else can change committed metadata while it validates,
// appends, and installs. It ranks in the per-array latch slot:
// reorgMu < mu < writeMu < Store.mu. The manifest itself never takes a
// store or array lock.
type manifest struct {
	s   *Store
	dir string

	// qmu guards the insert commit queue: an insert enqueues its synced
	// request under it, and whichever inserter holds mu drains the whole
	// queue into one record (commitQueued). An unranked leaf.
	qmu   sync.Mutex
	queue []*commitReq

	// mu is the commit latch; everything below is guarded by it.
	mu sync.Mutex
	// gen is the live generation (CURRENT's value).
	gen int
	// nextSeq is the last sequence number committed.
	nextSeq int64
	// validOff is the byte length of the known-good log prefix; a
	// failed append leaves bytes past it in doubt until a heal
	// truncates them.
	validOff int64
	// state mirrors the committed metadata document of every array;
	// rotation snapshots it without touching Store.mu (committed docs
	// are never edited in place — mutators always clone).
	state map[string]*arrayMeta
	// poisoned holds the error that left the log tail uncertain; no
	// append runs until heal() clears it.
	poisoned error
	// pendingFlip is a rotation generation whose snapshot and log are
	// durable but whose CURRENT flip failed uncertainly; heal retries
	// the flip, which is idempotent.
	pendingFlip int
	// lazyTrunc marks a torn tail found by a non-durable open, which
	// must not mutate the directory; the first append truncates it.
	lazyTrunc bool
	// rotateAt is the log size that triggers rotation; <0 disables.
	rotateAt int64
}

func manifestRotateAt(opts Options) int64 {
	if opts.ManifestRotateBytes != 0 {
		return opts.ManifestRotateBytes
	}
	return defaultManifestRotateBytes
}

// commit appends ops as ONE record — every op becomes visible together
// at replay — with a single write and (under Durability) a single
// fsync, and installs the committed documents into the mirror state.
// It is the commit point of every metadata mutation. Callers hold
// man.mu (the commit latch).
func (man *manifest) commit(ops ...manifestOp) error {
	if man.poisoned != nil {
		// definite failure: nothing was appended. The earlier failure
		// already degraded the store; report that state, not a fresh
		// uncertainty.
		return fmt.Errorf("core: manifest log has an unhealed tail: %w", ErrDegraded)
	}
	s := man.s
	buf, err := appendJSONFrame(nil, &manifestRecord{Seq: man.nextSeq + 1, Ops: ops})
	if err != nil {
		return err
	}
	logPath := filepath.Join(man.dir, manifestLogName(man.gen))
	if man.lazyTrunc {
		// a non-durable open saw this torn tail but could not repair it
		// (read-only opens must not mutate); cut it now, before the
		// first append would otherwise land behind garbage
		if err := s.fs.Truncate(logPath, man.validOff); err != nil {
			return err
		}
		man.lazyTrunc = false
	}
	f, err := s.fs.Append(logPath)
	if err != nil {
		// benign: the log was never opened, nothing changed on disk
		return err
	}
	_, werr := f.Write(buf)
	if werr == nil && s.opts.Durability {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		// uncertain: the record may be durable. The tail past validOff
		// is poisoned — appending behind it would commit records that
		// replay may never reach — so the whole store degrades until
		// the heal truncates the log back to validOff.
		man.poisonLocked(werr)
		return uncertain(werr)
	}
	man.nextSeq++
	for _, op := range ops {
		if op.Drop {
			delete(man.state, op.Name)
		} else {
			man.state[op.Name] = op.Meta
		}
	}
	man.validOff += int64(len(buf))
	s.addManifestAppend()
	if man.rotateAt >= 0 && man.validOff > man.rotateAt {
		man.rotateLocked()
	}
	return nil
}

// appendJSONFrame encodes v as JSON and appends it to dst as one frame.
func appendJSONFrame(dst []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return appendFrame(dst, raw)
}

// poisonLocked marks the log tail uncertain and degrades the whole
// store: every array shares this one commit point, so none of them can
// safely commit until the heal repairs it. Callers hold man.mu.
func (man *manifest) poisonLocked(err error) {
	man.poisoned = err
	man.s.degradeStore(err)
}

// rotateLocked writes a fresh snapshot generation and flips CURRENT to
// it. Rotation is housekeeping for the commit that triggered it — that
// commit already succeeded — so a failure before the flip is benign:
// remove the debris, keep the old generation, retry at the next
// append. From the CURRENT flip on a failure is uncertain and poisons
// the manifest with the flip pending; heal retries it. Callers hold
// man.mu.
func (man *manifest) rotateLocked() {
	s := man.s
	newGen := man.gen + 1
	snap := manifestSnapshot{Seq: man.nextSeq}
	names := make([]string, 0, len(man.state))
	for n := range man.state {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		snap.Arrays = append(snap.Arrays, manifestOp{Name: n, Meta: man.state[n]})
	}
	raw, err := appendJSONFrame(nil, &snap)
	if err != nil {
		return
	}
	cleanup := func(err error) {
		s.noteDiskPressure(err)
		_ = s.fs.Remove(filepath.Join(man.dir, manifestSnapName(newGen)))
		_ = s.fs.Remove(filepath.Join(man.dir, manifestLogName(newGen)))
	}
	if err := man.writeFileSync(manifestSnapName(newGen), raw); err != nil {
		cleanup(err)
		return
	}
	if err := man.writeFileSync(manifestLogName(newGen), nil); err != nil {
		cleanup(err)
		return
	}
	if s.opts.Durability {
		// the new generation's directory entries must be durable before
		// CURRENT can point at them
		if err := s.fs.SyncDir(man.dir); err != nil {
			cleanup(err)
			return
		}
	}
	if err := man.writeCurrent(newGen); err != nil {
		if isUncertain(err) {
			man.pendingFlip = newGen
			man.poisonLocked(err)
		} else {
			cleanup(err)
		}
		return
	}
	man.finishFlipLocked(newGen)
}

// finishFlipLocked installs a committed rotation: the generation
// advances, the log restarts empty, and the superseded generation's
// files are swept best-effort (a crashed sweep leaves debris for the
// next durable open). Callers hold man.mu.
func (man *manifest) finishFlipLocked(newGen int) {
	old := man.gen
	man.gen = newGen
	man.validOff = 0
	man.lazyTrunc = false
	man.pendingFlip = 0
	man.s.addManifestRotation()
	_ = man.s.fs.Remove(filepath.Join(man.dir, manifestSnapName(old)))
	_ = man.s.fs.Remove(filepath.Join(man.dir, manifestLogName(old)))
}

// writeFileSync creates name under the manifest dir with the given
// contents, fsynced under Durability. Failures are benign: Create
// truncates, so a retry starts clean.
func (man *manifest) writeFileSync(name string, data []byte) error {
	s := man.s
	f, err := s.fs.Create(filepath.Join(man.dir, name))
	if err != nil {
		return err
	}
	var werr error
	if len(data) > 0 {
		_, werr = f.Write(data)
	}
	if werr == nil && s.opts.Durability {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeCurrent atomically points CURRENT at gen: tmp write (+fsync
// under Durability), rename, parent sync. Failures through the tmp
// close are benign; from the rename on the new pointer may or may not
// be in place, so those failures are uncertain.
func (man *manifest) writeCurrent(gen int) error {
	s := man.s
	tmp := filepath.Join(man.dir, currentFile+".tmp")
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := fmt.Fprintf(f, "{\"gen\":%d}\n", gen)
	if werr == nil && s.opts.Durability {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	if err := s.fs.Rename(tmp, filepath.Join(man.dir, currentFile)); err != nil {
		return uncertain(err)
	}
	if s.opts.Durability {
		return uncertain(s.fs.SyncDir(man.dir))
	}
	return nil
}

// heal repairs the manifest after an uncertain failure: a pending
// rotation flip is retried (the new generation's files are already
// durable, so re-pointing CURRENT is idempotent), and a poisoned log
// tail is truncated back to the last byte every acknowledged commit
// covers. Called from Store.Heal's store-degraded branch.
func (man *manifest) heal() error {
	man.mu.Lock()
	defer man.mu.Unlock()
	if man.pendingFlip != 0 {
		if err := man.writeCurrent(man.pendingFlip); err != nil {
			return err
		}
		man.finishFlipLocked(man.pendingFlip)
		man.poisoned = nil
		return nil
	}
	if man.poisoned == nil {
		return nil
	}
	logPath := filepath.Join(man.dir, manifestLogName(man.gen))
	if err := man.s.fs.Truncate(logPath, man.validOff); err != nil {
		return err
	}
	man.poisoned = nil
	return nil
}

// --- open, replay, migration ---

// readCurrent parses the CURRENT pointer; os.ErrNotExist means the
// store is (still) legacy format.
func readCurrent(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		return 0, err
	}
	var cur struct {
		Gen int `json:"gen"`
	}
	if err := json.Unmarshal(raw, &cur); err != nil {
		return 0, fmt.Errorf("core: corrupt %s: %w", currentFile, err)
	}
	if cur.Gen < 1 {
		return 0, fmt.Errorf("core: corrupt %s: generation %d", currentFile, cur.Gen)
	}
	return cur.Gen, nil
}

// scanManifestFrame parses one AVC1 frame at the head of buf. ok is
// false when the bytes do not form a complete, checksum-valid frame —
// at the log tail that is a torn append, indistinguishable by design
// from a crash mid-write.
func scanManifestFrame(buf []byte) (payload []byte, size int64, ok bool) {
	if len(buf) < frameHeaderLen {
		return nil, 0, false
	}
	if string(buf[:4]) != frameMagic || buf[4] != frameVersion {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(buf[5:9]))
	total := frameHeaderLen + n
	if int64(len(buf)) < total {
		return nil, 0, false
	}
	payload = buf[frameHeaderLen:total]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[9:13]) {
		return nil, 0, false
	}
	return payload, total, true
}

// decodeManifestSnapshot parses and validates a snapshot file's one
// frame.
func decodeManifestSnapshot(raw []byte) (manifestSnapshot, error) {
	payload, size, ok := scanManifestFrame(raw)
	if !ok || size != int64(len(raw)) {
		return manifestSnapshot{}, errors.New("corrupt snapshot frame")
	}
	var snap manifestSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return manifestSnapshot{}, fmt.Errorf("corrupt snapshot: %w", err)
	}
	for _, op := range snap.Arrays {
		if op.Drop || op.Meta == nil {
			return manifestSnapshot{}, fmt.Errorf("corrupt snapshot: array %q has no document", op.Name)
		}
		if err := op.Meta.Schema.Validate(); err != nil {
			return manifestSnapshot{}, fmt.Errorf("corrupt snapshot: array %q: %w", op.Name, err)
		}
	}
	return snap, nil
}

// manifestReplay is one generation's chain rebuilt from disk: the
// state its snapshot plus log yields, and where the replayable log
// prefix ends.
type manifestReplay struct {
	state      map[string]*arrayMeta
	snapSeq    int64
	lastSeq    int64
	logRecords int64
	// validOff is the byte length of the replayed log prefix; torn
	// counts the bytes past it (a torn final append).
	validOff int64
	torn     int64
}

// replayManifest rebuilds generation gen from its snapshot and log —
// the one replay loop, shared by Open and VerifyManifest. A frame that
// fails its checksum ends the replay as a torn tail only when no
// checksum-valid frame follows it: a torn append is always the last
// thing in the log, so a valid frame behind a bad one means a damaged
// committed record. That, an undecodable record, a sequence gap and an
// op without a document are corruption: replay fails naming the log
// and the offset, and nothing is truncated or swept.
func replayManifest(dir string, gen int) (*manifestReplay, error) {
	snapName, logName := manifestSnapName(gen), manifestLogName(gen)
	snapRaw, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		return nil, fmt.Errorf("snapshot %s unreadable: %w", snapName, err)
	}
	snap, err := decodeManifestSnapshot(snapRaw)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", snapName, err)
	}
	r := &manifestReplay{state: make(map[string]*arrayMeta, len(snap.Arrays)), snapSeq: snap.Seq, lastSeq: snap.Seq}
	for _, op := range snap.Arrays {
		r.state[op.Name] = op.Meta
	}
	logRaw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("log %s unreadable: %w", logName, err)
	}
	var off int64
	for off < int64(len(logRaw)) {
		payload, size, ok := scanManifestFrame(logRaw[off:])
		if !ok {
			if validFrameAfter(logRaw, off) {
				return nil, fmt.Errorf("log %s offset %d: damaged record followed by valid records", logName, off)
			}
			break // torn tail
		}
		var rec manifestRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, fmt.Errorf("log %s offset %d: undecodable record: %w", logName, off, err)
		}
		if rec.Seq != r.lastSeq+1 {
			return nil, fmt.Errorf("log %s offset %d: sequence %d, want %d", logName, off, rec.Seq, r.lastSeq+1)
		}
		for _, op := range rec.Ops {
			switch {
			case op.Drop:
				delete(r.state, op.Name)
			case op.Meta == nil:
				return nil, fmt.Errorf("log %s record %d: array %q has no document", logName, rec.Seq, op.Name)
			default:
				if err := op.Meta.Schema.Validate(); err != nil {
					return nil, fmt.Errorf("log %s record %d: array %q: %w", logName, rec.Seq, op.Name, err)
				}
				r.state[op.Name] = op.Meta
			}
		}
		r.lastSeq = rec.Seq
		r.logRecords++
		off += size
	}
	r.validOff = off
	r.torn = int64(len(logRaw)) - off
	return r, nil
}

// validFrameAfter reports whether a checksum-valid frame starts
// anywhere in buf past off. The damaged frame's own length field may be
// what broke, so every later magic is tried.
func validFrameAfter(buf []byte, off int64) bool {
	for i := off + 1; i < int64(len(buf)); i++ {
		j := bytes.Index(buf[i:], []byte(frameMagic))
		if j < 0 {
			return false
		}
		i += int64(j)
		if _, _, ok := scanManifestFrame(buf[i:]); ok {
			return true
		}
	}
	return false
}

// openManifest replays an existing manifest (CURRENT present). A torn
// tail is truncated under Durability (recorded in recovery stats) or
// replayed around and cut lazily by the first append otherwise;
// corruption fails the open before anything is touched.
func openManifest(s *Store) (*manifest, error) {
	gen, err := readCurrent(s.dir)
	if err != nil {
		return nil, err
	}
	r, err := replayManifest(s.dir, gen)
	if err != nil {
		return nil, fmt.Errorf("core: manifest %w", err)
	}
	man := &manifest{
		s:        s,
		dir:      s.dir,
		gen:      gen,
		nextSeq:  r.lastSeq,
		validOff: r.validOff,
		state:    r.state,
		rotateAt: manifestRotateAt(s.opts),
	}
	if r.torn > 0 {
		if s.opts.Durability {
			if err := s.fs.Truncate(filepath.Join(s.dir, manifestLogName(gen)), r.validOff); err != nil {
				return nil, fmt.Errorf("core: truncate torn manifest tail: %w", err)
			}
			s.recovery.TruncatedFiles++
			s.recovery.TruncatedBytes += r.torn
		} else {
			man.lazyTrunc = true
		}
	}
	return man, nil
}

// sweepRootLocked removes root-level crash debris on a durable open:
// superseded or half-written MANIFEST generations, CURRENT tmp files,
// and array directories the replayed state does not reference (a
// crashed CreateArray that never committed, a committed DeleteArray
// whose removal was interrupted, or a migrated legacy store's
// half-created directories and delete tombstones).
func (man *manifest) sweepRootLocked() error {
	s := man.s
	entries, err := os.ReadDir(man.dir)
	if err != nil {
		return err
	}
	keepSnap, keepLog := manifestSnapName(man.gen), manifestLogName(man.gen)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if _, live := man.state[name]; live {
				continue
			}
			if err := s.fs.RemoveAll(filepath.Join(man.dir, name)); err != nil {
				return fmt.Errorf("sweep array dir %q: %w", name, err)
			}
			s.recovery.RemovedFiles++
			continue
		}
		stale := name == currentFile+".tmp" ||
			(strings.HasPrefix(name, manifestPrefix) && name != keepSnap && name != keepLog)
		if stale {
			if err := s.fs.Remove(filepath.Join(man.dir, name)); err != nil {
				return fmt.Errorf("sweep %q: %w", name, err)
			}
			s.recovery.RemovedFiles++
		}
	}
	return nil
}

// migrateToManifest upgrades a legacy per-array store in place on its
// first durable open (an empty directory is the trivial case — a new
// store is born manifest-format). The sequence is:
//
//  1. write MANIFEST-1.snap holding every loaded array's document
//  2. create an empty MANIFEST-1.log
//  3. sync the store root (both entries durable)
//  4. write CURRENT — THE migration commit point
//
// A crash before 4 leaves a fully legacy store (the MANIFEST debris is
// overwritten by the next attempt and invisible to non-durable opens);
// a crash after 4 leaves a fully migrated store. The now-dead
// versions.json files are swept by the recovery that follows every
// durable open (sweepDebris). Reads are byte-identical either way: the
// snapshot holds exactly the documents the legacy scan loaded.
func (s *Store) migrateToManifest() (*manifest, error) {
	man := &manifest{
		s:        s,
		dir:      s.dir,
		gen:      1,
		state:    make(map[string]*arrayMeta),
		rotateAt: manifestRotateAt(s.opts),
	}
	snap := manifestSnapshot{}
	names := make([]string, 0, len(s.arrays))
	for n := range s.arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := s.arrays[n].metaClone()
		man.state[n] = &m
		snap.Arrays = append(snap.Arrays, manifestOp{Name: n, Meta: &m})
	}
	raw, err := appendJSONFrame(nil, &snap)
	if err != nil {
		return nil, err
	}
	if err := man.writeFileSync(manifestSnapName(1), raw); err != nil {
		return nil, err
	}
	if err := man.writeFileSync(manifestLogName(1), nil); err != nil {
		return nil, err
	}
	if s.opts.Durability {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return nil, err
		}
	}
	if err := man.writeCurrent(1); err != nil {
		return nil, err
	}
	return man, nil
}

// --- stats ---

// addManifestAppend counts one log append (one record).
func (s *Store) addManifestAppend() {
	s.statsMu.Lock()
	s.stats.ManifestRecords++
	s.stats.ManifestAppends++
	if s.opts.Durability {
		s.stats.ManifestFsyncs++
	}
	s.statsMu.Unlock()
}

func (s *Store) addManifestRotation() {
	s.statsMu.Lock()
	s.stats.ManifestRotations++
	s.statsMu.Unlock()
}

// --- deep verification (avstore fsck) ---

// ManifestReport is VerifyManifest's result: the replayed chain's
// shape plus every integrity problem found. StrayFiles lists harmless
// crash debris a durable open would sweep; Problems are real
// corruption.
type ManifestReport struct {
	// Enabled reports whether the store has a manifest at all (false
	// for a legacy store opened without Durability, which is never
	// migrated).
	Enabled bool `json:"enabled"`
	// Gen is the live generation CURRENT points at.
	Gen int `json:"gen"`
	// SnapshotSeq is the sequence number the snapshot covers; LastSeq
	// is the last sequence replayed from the log.
	SnapshotSeq int64 `json:"snapshotSeq"`
	LastSeq     int64 `json:"lastSeq"`
	// LogRecords counts checksum-valid records replayed from the log.
	LogRecords int64 `json:"logRecords"`
	// Arrays is the number of live arrays in the replayed state.
	Arrays int `json:"arrays"`
	// TornBytes counts unreplayable bytes at the log tail (a torn
	// final append — repaired, not a problem).
	TornBytes int64 `json:"tornBytes"`
	// StrayFiles lists crash debris: superseded MANIFEST generations,
	// CURRENT tmp files, and leftover legacy versions.json files.
	StrayFiles []string `json:"strayFiles,omitempty"`
	// Problems lists integrity violations: bad checksums mid-chain,
	// sequence gaps, undecodable documents, or committed arrays whose
	// directories are missing.
	Problems []string `json:"problems,omitempty"`
}

// Ok reports whether the manifest chain verified clean.
func (r ManifestReport) Ok() bool { return len(r.Problems) == 0 }

// VerifyManifest deep-verifies the manifest chain from disk: CURRENT,
// the snapshot frame, every log record's checksum and sequence
// continuity, and that every committed array resolves to a directory.
// It reads through the plain os layer and never repairs anything, so
// it is safe on a store opened read-only. On a live manifest store the
// writer latch is held so the log is not scanned mid-append.
func (s *Store) VerifyManifest() (ManifestReport, error) {
	if s.man != nil {
		s.man.mu.Lock()
		defer s.man.mu.Unlock()
	}
	rep := ManifestReport{}
	gen, err := readCurrent(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		rep.Enabled = true
		rep.Problems = append(rep.Problems, err.Error())
		return rep, nil
	}
	rep.Enabled = true
	rep.Gen = gen

	r, err := replayManifest(s.dir, gen)
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
		return rep, nil
	}
	state := r.state
	rep.SnapshotSeq, rep.LastSeq, rep.LogRecords = r.snapSeq, r.lastSeq, r.logRecords
	rep.TornBytes, rep.Arrays = r.torn, len(state)

	// orphaned-record sweep: every committed array must resolve to a
	// directory, and leftover files (superseded generations, legacy
	// metadata inside array dirs) are reported as strays
	for name := range state {
		if info, err := os.Stat(filepath.Join(s.dir, name)); err != nil || !info.IsDir() {
			rep.Problems = append(rep.Problems, fmt.Sprintf("array %q is committed but its directory is missing", name))
		} else if _, err := os.Stat(filepath.Join(s.dir, name, metaFile)); err == nil {
			rep.StrayFiles = append(rep.StrayFiles, filepath.Join(name, metaFile))
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if _, live := state[name]; !live {
				rep.StrayFiles = append(rep.StrayFiles, name+string(os.PathSeparator))
			}
			continue
		}
		if name == currentFile+".tmp" ||
			(strings.HasPrefix(name, manifestPrefix) && name != manifestSnapName(gen) && name != manifestLogName(gen)) {
			rep.StrayFiles = append(rep.StrayFiles, name)
		}
	}
	sort.Strings(rep.StrayFiles)
	return rep, nil
}
