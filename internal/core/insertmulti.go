package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// MultiInsert names one array's payload batch within an InsertMulti
// call.
type MultiInsert struct {
	Array    string
	Payloads []Payload
}

// InsertMulti inserts payload batches into several arrays under ONE
// commit point: a single manifest record batch, appended and fsynced
// once, makes every member durable together. Either every array shows
// its new versions or none does, after a crash too. The result maps
// each array name to the version ids its payloads were assigned, in
// payload order.
func (s *Store) InsertMulti(batches []MultiInsert) (map[string][]int, error) {
	return s.InsertMultiCtx(context.Background(), batches)
}

// InsertMultiCtx is InsertMulti honoring ctx before the commit
// pipeline begins. Once the arrays are latched the commit runs to
// completion: cancellation mid-commit could not undo the shared
// manifest append anyway, so a ctx error from this method means no
// version was created anywhere.
func (s *Store) InsertMultiCtx(ctx context.Context, batches []MultiInsert) (map[string][]int, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("core: InsertMulti needs at least one batch")
	}
	byName := make(map[string][]Payload, len(batches))
	names := make([]string, 0, len(batches))
	for _, b := range batches {
		if b.Array == "" {
			return nil, fmt.Errorf("core: InsertMulti batch with an empty array name")
		}
		if len(b.Payloads) == 0 {
			return nil, fmt.Errorf("core: InsertMulti batch for array %q has no payloads", b.Array)
		}
		if _, dup := byName[b.Array]; dup {
			return nil, fmt.Errorf("core: InsertMulti names array %q twice", b.Array)
		}
		byName[b.Array] = b.Payloads
		names = append(names, b.Array)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := s.writeGate(n); err != nil {
			return nil, err
		}
	}

	// Acquire every array's full commit-latch set ({syncMu, commitMu,
	// writeMu}, the insertBatchFallback set) in sorted-name order.
	// Multi-array lock ordering only matters among InsertMulti callers
	// — every other path latches a single array and never waits on a
	// second one while holding the first — so the global name order
	// makes the acquisition deadlock-free.
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	sts := make(map[string]*arrayState, len(sorted))
	held := make([]*arrayState, 0, len(sorted))
	release := func() {
		for i := len(held) - 1; i >= 0; i-- {
			held[i].writeMu.Unlock()
			held[i].commitMu.Unlock()
			held[i].syncMu.Unlock()
		}
	}
	for _, n := range sorted {
		st, err := s.lockArray(n, func(st *arrayState) []*sync.Mutex {
			return []*sync.Mutex{&st.syncMu, &st.commitMu, &st.writeMu}
		})
		if err != nil {
			release()
			return nil, err
		}
		held = append(held, st)
		sts[n] = st
	}
	defer release()

	// Drain straggler pending inserts per array (their leaders cannot
	// run while we hold the latches), so our staged documents clone a
	// settled state.
	for _, st := range held {
		if batch := st.drainPending(); len(batch) > 0 {
			s.syncStagedBatch(st, batch)
			s.finalizeBatch(st, batch, true)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	for _, n := range sorted {
		if s.arrays[n] != sts[n] {
			return nil, fmt.Errorf("core: no array %q", n)
		}
	}

	var staged []*stagedBatch
	fail := func(err error) (map[string][]int, error) {
		// like the single-array path, blobs are swept even after an
		// uncertain commit: the staged documents were never installed,
		// so the heal resolves the on-disk uncertainty in favor of the
		// in-memory state that excludes them
		for _, sb := range staged {
			sb.ws.sweep(s)
		}
		s.noteDiskPressure(err)
		return nil, err
	}
	for _, n := range sorted {
		sb, err := s.stageBatchLocked(sts[n], byName[n], "insert")
		if err != nil {
			return fail(err) // sb's own write-set is already swept
		}
		staged = append(staged, sb)
	}
	if s.opts.Durability {
		t0 := time.Now()
		var bytes int64
		for _, sb := range staged {
			if err := sb.ws.sync(s); err != nil {
				s.noteCommitFailure(sb.st, err)
				return fail(err)
			}
			if sb.ws.createdFiles() {
				if err := s.fs.SyncDir(sb.dir); err != nil {
					s.noteCommitFailure(sb.st, err)
					return fail(err)
				}
			}
			bytes += sb.ws.totalBytes()
		}
		s.prof.observeCommit(StageDataFsync, time.Since(t0), bytes)
	}
	ops := make([]manifestOp, 0, len(staged))
	for _, sb := range staged {
		ops = append(ops, manifestOp{Name: sb.st.Schema.Name, Meta: sb.staged})
	}
	t0 := time.Now()
	if err := s.man.commit(ops); err != nil {
		if isUncertain(err) {
			for _, sb := range staged {
				s.noteCommitFailure(sb.st, err)
			}
		}
		return fail(err)
	}
	s.prof.observeCommit(StageMetaCommit, time.Since(t0), 0)
	out := make(map[string][]int, len(staged))
	total := 0
	for _, sb := range staged {
		sb.st.mutateLocked()
		sb.st.installMeta(*sb.staged)
		s.publishLocked(sb.st, sb.planes)
		out[sb.st.Schema.Name] = sb.ids
		total += len(sb.ids)
	}
	s.addGroupCommit(total)
	s.prof.batchSize.Observe(float64(total))
	return out, nil
}
