// Package core is a commitpoint fixture: writes to installed arrayMeta
// fields (and installer calls) must be dominated by a commit-seam call;
// staged-clone edits and post-commit installs must not be flagged.
package core

type versionMeta struct{ ID int }

type arrayMeta struct {
	Versions []versionMeta
	NextID   int
	Gen      int
	Format   int
}

type arrayState struct {
	arrayMeta
	dirty bool // runtime state, not part of the durable document
}

type manifest struct{}

// commit is the commit seam: the manifest log's one append function.
func (man *manifest) commit(m ...*arrayMeta) error { return nil }

type Store struct{ man *manifest }

// installMeta is the designated installer: its own writes ARE the
// install implementation; call sites must be commit-dominated.
//
//avlint:installer
func (st *arrayState) installMeta(m arrayMeta) {
	st.NextID = m.NextID
	st.Versions = m.Versions
	st.Gen = m.Gen
}

func (s *Store) badDirectWrite(st *arrayState) error {
	st.NextID++ // want `write to installed metadata field arrayMeta\.NextID before any commit-seam call`
	m := st.arrayMeta
	return s.man.commit(&m)
}

func (s *Store) badWholeDoc(st *arrayState, m arrayMeta) {
	st.arrayMeta = m // want `write to installed metadata field arrayState\.arrayMeta before any commit-seam call`
}

func (s *Store) badInstallFirst(st *arrayState) error {
	m := st.arrayMeta
	st.installMeta(m) // want `installer installMeta called before any commit-seam call`
	return s.man.commit(&m)
}

// the staged-clone protocol: edit a detached document, commit it,
// install only after the seam succeeded
func (s *Store) good(st *arrayState) error {
	m := st.arrayMeta
	m.NextID++
	m.Versions = append(m.Versions, versionMeta{ID: m.NextID})
	if err := s.man.commit(&m); err != nil {
		return err
	}
	st.installMeta(m)
	return nil
}

// several arrays' documents in one record: one seam call
func (s *Store) goodManifest(st *arrayState, m arrayMeta) error {
	if err := s.man.commit(&m, &m); err != nil {
		return err
	}
	st.installMeta(m)
	st.Gen = m.Gen
	return nil
}

// loader/recovery paths carry the escape hatch: disk is the authority
func (s *Store) allowedLoad(st *arrayState) {
	st.Gen = 1 //avlint:allow-install fixture loader: the on-disk document is the authority here
	st.dirty = true
}
