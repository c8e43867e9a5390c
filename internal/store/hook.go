package store

import (
	"cmp"
	"slices"

	"mdw/internal/rdf"
)

// Op identifies the kind of a committed store mutation, as observed by a
// CommitHook. The set mirrors the store's mutating entry points: triple
// insertion (Add/AddAll and the staging bulk loads built on them),
// removal, model lifecycle (DropModel/CloneModel), and atomic publication
// of derived models, whole (InstallModel) or as an extension of the
// installed one (InstallExtension, used by reason.Materialize).
type Op uint8

const (
	// OpAdd records triples newly inserted into a model.
	OpAdd Op = iota + 1
	// OpRemove records a triple deleted from a model.
	OpRemove
	// OpDrop records removal of a whole model.
	OpDrop
	// OpClone records CloneModel(Src, Model).
	OpClone
	// OpInstall records atomic publication of a model via InstallModel.
	OpInstall
	// OpExtend records atomic publication, via InstallExtension, of a
	// model that differs from the one it replaces by the listed triples.
	OpExtend
)

// String returns the canonical lower-case name of the op.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpDrop:
		return "drop"
	case OpClone:
		return "clone"
	case OpInstall:
		return "install"
	case OpExtend:
		return "extend"
	default:
		return "op?"
	}
}

// Mutation describes one committed mutation. It is delivered to the
// commit hook while the store's write lock is still held, so the sequence
// of Mutations a hook observes is exactly the store's serialization
// order — the property a write-ahead log needs.
//
// Triples are dictionary-encoded; the hook decodes them through the
// store's Dict (safe under the write lock: the Dict has its own lock and
// is append-only). The slices belong to the store (an OpAdd's is a
// window of the model's change feed): the hook must not modify them or
// retain them past the call.
type Mutation struct {
	Op    Op
	Model string // target model (destination for OpClone)
	Src   string // source model (OpClone only)
	// Triples holds the triples actually inserted (OpAdd), the triple
	// actually removed (OpRemove), or the triples the published model has
	// and its predecessor lacked (OpExtend). Duplicates that changed
	// nothing are never reported.
	Triples []ETriple
	// Removed holds the triples the predecessor had and the published
	// model lacks (OpExtend only).
	Removed []ETriple
	// PrevGen is the generation of the model an OpExtend replaced.
	PrevGen uint64
	// Gen is the target model's generation after the mutation (the clone's
	// generation for OpClone, the published model's for OpInstall and
	// OpExtend, 0 for OpDrop). Replaying the same mutations onto the same
	// prior state reproduces these generations exactly, which lets
	// recovery verify convergence record by record.
	Gen uint64
	// Basis is the published model's recorded derivation basis
	// (OpInstall and OpExtend).
	Basis uint64
	// Installed is the model just published (OpInstall only). The hook may
	// read it — under the write lock nothing else mutates it — but must
	// not modify or retain it past the call.
	Installed *Model
}

// CommitHook observes committed mutations. It is invoked synchronously
// under the store's write lock, immediately after the mutation applied:
// the hook must be fast, must not block indefinitely, and must not call
// any locking Store method (that would self-deadlock). The durable
// subsystem attaches one to give every engine write-ahead logging for
// free.
type CommitHook func(Mutation)

// SetCommitHook installs hook (nil detaches). Only one hook is supported;
// the durable manager owns it.
func (s *Store) SetCommitHook(hook CommitHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = hook
}

// commit delivers mut to the attached hook. Callers hold the write
// lock, so the CommitHook contract forbids the hook from calling
// locking Store methods — re-entry would self-deadlock.
func (s *Store) commit(mut Mutation) {
	if s.hook != nil {
		s.hook(mut)
	}
}

// ModelState is a consistent point-in-time capture of one model: its
// identity, versioning counters, and full encoded contents in canonical
// (S, P, O) order. View.States produces one per member; the durable
// snapshot writer serializes them.
type ModelState struct {
	Name    string
	Gen     uint64
	Basis   uint64
	Triples []ETriple // sorted ascending by (S, P, O)
}

// States captures every member of the view, in member order. The members
// are versions nobody writes, so the O(triples) walk holds no lock.
func (v *View) States() []ModelState {
	states := make([]ModelState, len(v.models))
	for i, m := range v.models {
		states[i] = ModelState{Name: m.name, Gen: m.gen, Basis: m.basis, Triples: m.sorted()}
	}
	return states
}

// sorted returns the model's triples ascending by (S, P, O): its SPO
// run, merged from the base's, the tombstones' and the delta's.
func (m *Model) sorted() []ETriple {
	r := merged(&m.base.ix[0], &m.tomb.ix[0], &m.delta.ix[0])
	out := make([]ETriple, 0, len(r.b))
	each(0, r.find(Wildcard, Wildcard), cursor{}, func(t ETriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// CaptureState captures the whole store as of one moment: every model's
// state, in name order, plus a dictionary prefix that covers every ID
// they reference. Only pinning the models' versions happens under the
// store's lock (SnapshotAll, which also says what observe is for); the
// walk and the sort do not, so no load waits for them.
func (s *Store) CaptureState(observe func()) ([]ModelState, []rdf.Term) {
	v := s.SnapshotAll(observe)
	// The dictionary is append-only and shared; reading it after the models
	// are pinned guarantees every captured ID is covered.
	return v.States(), s.dict.Since(0)
}

// SortETriples sorts encoded triples ascending by (S, P, O).
func SortETriples(ts []ETriple) {
	slices.SortFunc(ts, compareSPO)
}

// compareSPO orders encoded triples by (S, P, O).
func compareSPO(a, b ETriple) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.O, b.O)
}
