package core

import (
	"context"
	"fmt"
	"sort"
)

// MultiInsert names one array's payload batch within an InsertMulti
// call.
type MultiInsert struct {
	Array    string
	Payloads []Payload
}

// InsertMulti inserts payload batches into several arrays under ONE
// commit point: a single manifest record, appended and fsynced once,
// makes every member durable together. Either every array shows
// its new versions or none does, after a crash too. The result maps
// each array name to the version ids its payloads were assigned, in
// payload order.
func (s *Store) InsertMulti(batches []MultiInsert) (map[string][]int, error) {
	return s.InsertMultiCtx(context.Background(), batches)
}

// InsertMultiCtx is InsertMulti honoring ctx during staging. The batch
// is one commit request with one part per array: its parts stage in
// sorted-name order, each under its array's write latch, and it
// re-stages like InsertBatch when a concurrent rewrite or delete
// invalidates a part. Once it reaches the commit queue the commit runs
// to completion, so a ctx error from this method means no version was
// created anywhere.
func (s *Store) InsertMultiCtx(ctx context.Context, batches []MultiInsert) (map[string][]int, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("core: InsertMulti needs at least one batch")
	}
	seen := make(map[string]bool, len(batches))
	for _, b := range batches {
		if b.Array == "" {
			return nil, fmt.Errorf("core: InsertMulti batch with an empty array name")
		}
		if len(b.Payloads) == 0 {
			return nil, fmt.Errorf("core: InsertMulti batch for array %q has no payloads", b.Array)
		}
		if seen[b.Array] {
			return nil, fmt.Errorf("core: InsertMulti names array %q twice", b.Array)
		}
		seen[b.Array] = true
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, b := range batches {
		if err := s.writeGate(b.Array); err != nil {
			return nil, err
		}
	}
	sorted := append([]MultiInsert(nil), batches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Array < sorted[j].Array })
	ids, err := s.insert(ctx, sorted)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int, len(sorted))
	for i, b := range sorted {
		out[b.Array] = ids[i]
	}
	return out, nil
}
