// Package core is an errsync fixture: discarded Close/Sync/Flush and
// commit-seam errors on durable paths must be flagged; explicit
// discards and error-returning uses must not.
package core

import (
	"bufio"
	"os"
)

type arrayState struct{ dirty bool }

type manifest struct{}

// commit is the commit seam: the manifest log's one append function.
func (man *manifest) commit(ops ...string) error { return nil }

type Store struct{ man *manifest }

func bad(f *os.File, w *bufio.Writer, s *Store, st *arrayState) {
	f.Close()         // want `Close error discarded on a durable path`
	defer f.Sync()    // want `Sync error discarded on a durable path`
	go f.Close()      // want `Close error discarded on a durable path`
	w.Flush()         // want `Flush error discarded on a durable path`
	s.man.commit("a") // want `commit error discarded: the metadata commit outcome`
}

func good(f *os.File, s *Store, st *arrayState) error {
	_ = f.Close() // explicit discard is visible and greppable: allowed
	if err := s.man.commit("a"); err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return f.Sync()
}

func hatch(f *os.File) {
	f.Close() //avlint:allow-err fixture exercising the escape hatch
}

// a Close that returns no error has nothing to discard
type noErrCloser struct{}

func (noErrCloser) Close() {}

func negative(c noErrCloser) {
	c.Close()
}
