package main

import (
	"fmt"
	"sync"

	"arrayvers/internal/array"
)

// ledger counts attempted and failed operations. Content checks are
// recorded during the timed phase as (request, reply hash) pairs and
// compared against the generator by verify, outside the timed interval.
type ledger struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
	checks    []check
	// corrupt flips the first expected hash verify computes, so a test
	// can prove that a wrong reply is caught.
	corrupt bool
}

// expectKey names one reply's expected content: n consecutive versions
// starting at generator ordinal k of series arr, cut to a box. multi
// marks a stacked (SelectMulti) reply, which has a leading version axis.
type expectKey struct {
	arr, k, n      int
	multi          bool
	y0, x0, y1, x1 int64
}

type check struct {
	key expectKey
	got uint64
}

func planeKey(arr, k int, b array.Box) expectKey {
	return expectKey{arr: arr, k: k, n: 1, y0: b.Lo[0], x0: b.Lo[1], y1: b.Hi[0], x1: b.Hi[1]}
}

func multiKey(arr, k, n int, b array.Box) expectKey {
	key := planeKey(arr, k, b)
	key.n, key.multi = n, true
	return key
}

func (l *ledger) failf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and, when err is set, its failure,
// described by format and args.
func (l *ledger) op(err error, format string, args ...any) bool {
	l.mu.Lock()
	l.attempted++
	l.mu.Unlock()
	if err != nil {
		l.failf("%s: %v", fmt.Sprintf(format, args...), err)
		return false
	}
	return true
}

// expectDense records a dense reply for verification.
func (l *ledger) expectDense(key expectKey, d *array.Dense) {
	if d.DType() != array.Int32 {
		l.failf("select %+v: got dtype %v", key, d.DType())
		return
	}
	got := contentHash(d.Shape(), d.Bytes())
	l.mu.Lock()
	l.checks = append(l.checks, check{key: key, got: got})
	l.mu.Unlock()
}

// expectID checks that an insert returned a fresh ID above every ID the
// same array acknowledged before.
func (l *ledger) expectID(array string, prev, got int) {
	if got <= prev {
		l.failf("insert into %s: id %d not above previous %d", array, got, prev)
	}
}

// verify compares every recorded reply with the generator's content.
func (l *ledger) verify(ser []*series) {
	l.mu.Lock()
	checks := l.checks
	l.checks = nil
	l.mu.Unlock()
	want := make(map[expectKey]uint64)
	var buf []byte
	for _, c := range checks {
		h, ok := want[c.key]
		if !ok {
			h, buf = expectedHash(ser[c.key.arr], c.key, buf[:0])
			if l.corrupt {
				h ^= 1
				l.corrupt = false
			}
			want[c.key] = h
		}
		if c.got != h {
			l.failf("select %+v: reply content differs from the generator", c.key)
		}
	}
}

func expectedHash(s *series, key expectKey, buf []byte) (uint64, []byte) {
	b := array.NewBox([]int64{key.y0, key.x0}, []int64{key.y1, key.x1})
	for v := key.k; v < key.k+key.n; v++ {
		buf = s.appendRegion(buf, v, b)
	}
	shape := []int64{key.y1 - key.y0, key.x1 - key.x0}
	if key.multi {
		shape = append([]int64{int64(key.n)}, shape...)
	}
	return contentHash(shape, buf), buf
}

func (l *ledger) summary() (attempted, failed int64, errs []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed, append([]string(nil), l.errs...)
}
