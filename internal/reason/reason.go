// Package reason implements the entailment component of the meta-data
// warehouse: a forward-chaining materializer for a subset of the OWLPRIME
// rulebase that Oracle's Semantic option applies in the paper
// (SEM_RULEBASES('OWLPRIME') in Listings 1 and 2).
//
// Section III.B describes the mechanism precisely: "indexes read all
// relationships (meta-data schema and hierarchies) and apply them on the
// basic facts. The resulting derived RDF triples ... are included in the
// indexes. In fact, the indexes add additional edges to the meta-data
// graph and therefore increase its density." And crucially: "if a query
// does not explicitly contain a reference to one of these OWL indexes,
// then only the meta-data facts are considered."
//
// Materialize therefore keeps derived triples in a *separate* index
// model (named <model>$<rulebase>); queries opt in by unioning the base
// model with its index model, exactly mirroring the paper's semantics.
//
// The warehouse is loaded by additions and every rule below is monotone,
// so the index is maintained, not rebuilt: Materialize starts the rules
// from the base triples added since the index was derived (the store's
// change feed) and extends the installed index with what they newly
// entail. Deriving from scratch is the same run with an empty index and
// every base triple as the delta; it happens for a first derivation and
// after anything that is not an addition (see store.SnapshotDelta).
//
// Supported rules:
//
//	rdfs:subClassOf     transitivity and rdf:type inheritance
//	rdfs:subPropertyOf  transitivity and statement inheritance
//	rdfs:domain         (x p y), (p domain C)  ⇒  (x rdf:type C)
//	rdfs:range          (x p y), (p range C)   ⇒  (y rdf:type C), y non-literal
//	owl:SymmetricProperty, owl:TransitiveProperty
//	owl:inverseOf       including its own symmetry
//	owl:equivalentClass / owl:equivalentProperty (as mutual sub-relations)
//	owl:sameAs          symmetric + transitive closure
package reason

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Metric handles, resolved once at package init.
var (
	obsMaterializeHist = obs.Default().Histogram("mdw_reason_materialize_seconds", nil)
	obsDerived         = obs.Default().Counter("mdw_reason_derived_total")
	obsDelta           = obs.Default().Counter("mdw_reason_delta_triples_total")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_reason_materialize_seconds", "Latency of one OWLPRIME index maintenance run (extension or from-scratch derivation).")
	r.SetHelp("mdw_reason_derived_total", "Triples newly derived by index maintenance runs.")
	r.SetHelp("mdw_reason_delta_triples_total", "Base triples index maintenance runs started from (a from-scratch run starts from the whole model).")
}

// RulebaseOWLPrime names the default rulebase, matching the paper's
// SEM_RULEBASES('OWLPRIME').
const RulebaseOWLPrime = "OWLPRIME"

// IndexModelName returns the name of the index model holding the derived
// triples for the given base model and rulebase.
func IndexModelName(model, rulebase string) string {
	return model + "$" + rulebase
}

// engine is one maintenance run: the rules probe the closure base ∪ idx
// and write what they derive into idx.
type engine struct {
	dict *store.Dict
	// base is the pinned version of the base model, read only; idx holds the
	// derived-only triples and is this run's to mutate. The two are
	// disjoint, so their union needs no de-duplication.
	base, idx *store.Model

	// Interned vocabulary IDs.
	typeID, subClassID, subPropID store.ID
	domainID, rangeID             store.ID
	symmetricID, transitiveID     store.ID
	inverseID, sameAsID           store.ID
	equivClassID, equivPropID     store.ID
}

func newEngine(dict *store.Dict, base, idx *store.Model) *engine {
	return &engine{
		dict:         dict,
		base:         base,
		idx:          idx,
		typeID:       dict.Intern(rdf.IRI(rdf.RDFType)),
		subClassID:   dict.Intern(rdf.IRI(rdf.RDFSSubClassOf)),
		subPropID:    dict.Intern(rdf.IRI(rdf.RDFSSubPropertyOf)),
		domainID:     dict.Intern(rdf.IRI(rdf.RDFSDomain)),
		rangeID:      dict.Intern(rdf.IRI(rdf.RDFSRange)),
		symmetricID:  dict.Intern(rdf.IRI(rdf.OWLSymmetricProperty)),
		transitiveID: dict.Intern(rdf.IRI(rdf.OWLTransitiveProperty)),
		inverseID:    dict.Intern(rdf.IRI(rdf.OWLInverseOf)),
		sameAsID:     dict.Intern(rdf.IRI(rdf.OWLSameAs)),
		equivClassID: dict.Intern(rdf.IRI(rdf.OWLEquivalentClass)),
		equivPropID:  dict.Intern(rdf.IRI(rdf.OWLEquivalentProperty)),
	}
}

// Materialize is MaterializeCtx with a background context.
func Materialize(st *store.Store, model string) (string, error) {
	return MaterializeCtx(context.Background(), st, model)
}

// MaterializeCtx brings the OWLPRIME index model of the named base model
// up to date with the base's present generation and returns its name: it
// is what ViewCtx does for one entailed model, for callers that want the
// index to exist but read nothing.
func MaterializeCtx(ctx context.Context, st *store.Store, model string) (string, error) {
	_, err := pinEntailed(ctx, st, model)
	return IndexModelName(model, RulebaseOWLPrime), err
}

// pinEntailed pins one consistent pair: the base model cut at some
// generation g and the OWLPRIME index whose basis is g. The index holds
// the *derived-only* triples. When the installed index is current this
// costs one snapshot; when it is behind, the pair is derived here, from
// the very cut that is returned — runs are single-flighted per base model,
// so concurrent callers that find the index stale wait for one run
// instead of starting their own.
//
// A run works on one consistent cut (store.SnapshotDelta): the version of
// the base that readers of this generation share, a copy-on-write clone
// of the installed index, and the base triples added since the index's
// basis. It drops from the index the delta triples that are now asserted,
// forward-chains from the delta against base ∪ index, and publishes the
// extended index atomically with the cut's generation as its basis:
// concurrent writers never race with the rule engine, readers never
// observe a half-built index, and store.Current(model, idxName) reports
// whether the index still reflects the base model. Because every rule is
// monotone and has at most one premise outside the closure at the moment
// the other is processed, the result is the index a from-scratch
// derivation would produce.
func pinEntailed(ctx context.Context, st *store.Store, model string) (*store.View, error) {
	idxName := IndexModelName(model, RulebaseOWLPrime)
	current := func() *store.View {
		v := st.Snapshot(model, idxName)
		if idx := v.Cut(idxName); idx.Exists && idx.Basis == v.Cut(model).Gen {
			return v
		}
		return nil
	}
	if v := current(); v != nil {
		return v, nil
	}
	mu := st.DeriveLock(model)
	mu.Lock()
	defer mu.Unlock()
	if v := current(); v != nil {
		return v, nil // the run we waited for did it
	}
	sp, _ := obs.ChildCtx(ctx, "reindex")
	defer sp.Finish()
	t0 := time.Now()
	d := st.SnapshotDelta(model, idxName)
	if d == nil {
		return nil, fmt.Errorf("reason: no such model %q", model)
	}
	e := newEngine(st.Dict(), d.Base, d.Derived)

	// The queue starts as the delta. The rules run over it in rounds: what
	// a round derives beyond the closure is collected, goes to the index in
	// one AddAll — a bulk merge for a large round, no map insert per
	// triple — and its newly added triples form the next round. Every
	// queued triple is in the closure before the rules run on it, so each
	// rule still meets its other premise, whichever came later.
	queue, nDelta := d.Added, len(d.Added)
	asserted := e.idx.RemoveAll(queue)
	var derived []store.ETriple
	emit := func(t store.ETriple) {
		if !e.base.Contains(t) && !e.idx.Contains(t) {
			derived = append(derived, t)
		}
	}
	for i := 0; i < len(queue); {
		for end := len(queue); i < end; i++ {
			e.applyRules(queue[i], emit)
		}
		queue = append(queue, e.idx.AddAll(derived)...)
		derived = derived[:0]
	}
	e.idx.SetBasis(d.Base.Gen())
	// The index's change feed keeps what it is handed: a window of the
	// queue would keep the whole queue, the delta in front included.
	added := make([]store.ETriple, len(queue)-nDelta)
	copy(added, queue[nDelta:])
	st.InstallExtension(e.idx, d.PrevGen, added, asserted)

	obsMaterializeHist.ObserveSince(t0)
	obsDelta.Add(int64(nDelta))
	obsDerived.Add(int64(len(queue) - nDelta))
	sp.SetLabel("delta", strconv.Itoa(nDelta)).SetLabel("derived", strconv.Itoa(len(queue)-nDelta))
	// Installed, the index is a version like the base cut: nobody writes
	// either again, whatever the writers have done to the store since.
	return store.NewView(d.Base, e.idx), nil
}

// ViewCtx is the tree's one view-acquisition function: it turns model
// names into a read view pinned at one moment of the store, valid for as
// long as the caller holds it while loads go on. With entailed set that
// is what the paper's rulebase queries run against — each base model ∪
// its OWLPRIME index, a consistent pair by construction (see pinEntailed),
// which fails for a model the store does not have; without, the asserted
// facts only ("if a query does not explicitly contain a reference to one
// of these OWL indexes, then only the meta-data facts are considered"),
// where a missing model is an empty one and nothing can fail. Every
// reader outside internal/store gets its view here.
func ViewCtx(ctx context.Context, st *store.Store, entailed bool, models ...string) (*store.View, error) {
	if !entailed {
		return st.ViewOf(models...), nil
	}
	var members []*store.Model
	for _, m := range models {
		v, err := pinEntailed(ctx, st, m)
		if err != nil {
			return nil, err
		}
		members = append(members, v.Models()...)
	}
	return store.NewView(members...), nil
}

// View is ViewCtx with a background context.
func View(st *store.Store, entailed bool, models ...string) (*store.View, error) {
	return ViewCtx(context.Background(), st, entailed, models...)
}

// contains, objects, subjects and forEach read the closure base ∪ idx.
// The slices are fresh copies: emit mutates idx while callers range.

func (e *engine) contains(t store.ETriple) bool {
	return e.base.Contains(t) || e.idx.Contains(t)
}

func (e *engine) objects(s, p store.ID) []store.ID {
	return append(e.base.Objects(s, p), e.idx.Objects(s, p)...)
}

func (e *engine) subjects(p, o store.ID) []store.ID {
	return append(e.base.Subjects(p, o), e.idx.Subjects(p, o)...)
}

// forEach visits every statement of the closure with predicate p.
func (e *engine) forEach(p store.ID, fn func(store.ETriple)) {
	visit := func(t store.ETriple) bool { fn(t); return true }
	e.base.ForEach(store.Wildcard, p, store.Wildcard, visit)
	e.idx.ForEach(store.Wildcard, p, store.Wildcard, visit)
}

// applyRules derives the immediate consequences of triple t against the
// current closure and hands each to emit.
func (e *engine) applyRules(t store.ETriple, emit func(store.ETriple)) {
	s, p, o := t.S, t.P, t.O

	switch p {
	case e.subClassID:
		// Transitivity, both join directions.
		for _, c := range e.objects(o, e.subClassID) {
			emit(store.ETriple{S: s, P: e.subClassID, O: c})
		}
		for _, a := range e.subjects(e.subClassID, s) {
			emit(store.ETriple{S: a, P: e.subClassID, O: o})
		}
		// Type inheritance for existing instances of the subclass.
		for _, x := range e.subjects(e.typeID, s) {
			emit(store.ETriple{S: x, P: e.typeID, O: o})
		}

	case e.subPropID:
		for _, c := range e.objects(o, e.subPropID) {
			emit(store.ETriple{S: s, P: e.subPropID, O: c})
		}
		for _, a := range e.subjects(e.subPropID, s) {
			emit(store.ETriple{S: a, P: e.subPropID, O: o})
		}
		// Statement inheritance: every (x s y) also holds under o.
		e.forEach(s, func(st store.ETriple) {
			emit(store.ETriple{S: st.S, P: o, O: st.O})
		})

	case e.typeID:
		// Class membership propagates up the hierarchy.
		for _, c := range e.objects(o, e.subClassID) {
			emit(store.ETriple{S: s, P: e.typeID, O: c})
		}
		if e.isSchemaPredicate(s) {
			// Declaring a schema predicate symmetric/transitive would
			// corrupt the schema rules themselves; ignore it.
			return
		}
		switch o {
		case e.symmetricID:
			e.forEach(s, func(st store.ETriple) {
				emit(store.ETriple{S: st.O, P: s, O: st.S})
			})
		case e.transitiveID:
			e.forEach(s, func(st store.ETriple) {
				for _, z := range e.objects(st.O, s) {
					emit(store.ETriple{S: st.S, P: s, O: z})
				}
			})
		}

	case e.domainID:
		// t = (prop, domain, class): type every existing subject.
		e.forEach(s, func(st store.ETriple) {
			emit(store.ETriple{S: st.S, P: e.typeID, O: o})
		})

	case e.rangeID:
		e.forEach(s, func(st store.ETriple) {
			if !e.isLiteral(st.O) {
				emit(store.ETriple{S: st.O, P: e.typeID, O: o})
			}
		})

	case e.inverseID:
		// t = (p', inverseOf, q): swap all existing statements both ways,
		// and record the symmetric inverse declaration.
		emit(store.ETriple{S: o, P: e.inverseID, O: s})
		e.forEach(s, func(st store.ETriple) {
			emit(store.ETriple{S: st.O, P: o, O: st.S})
		})
		e.forEach(o, func(st store.ETriple) {
			emit(store.ETriple{S: st.O, P: s, O: st.S})
		})

	case e.equivClassID:
		emit(store.ETriple{S: s, P: e.subClassID, O: o})
		emit(store.ETriple{S: o, P: e.subClassID, O: s})

	case e.equivPropID:
		emit(store.ETriple{S: s, P: e.subPropID, O: o})
		emit(store.ETriple{S: o, P: e.subPropID, O: s})

	case e.sameAsID:
		// Transitivity, both join directions: a round sees the triples
		// derived in it only in the next one, so the symmetric triple alone
		// does not carry the chain.
		emit(store.ETriple{S: o, P: e.sameAsID, O: s})
		for _, z := range e.objects(o, e.sameAsID) {
			if z != s {
				emit(store.ETriple{S: s, P: e.sameAsID, O: z})
			}
		}
		for _, a := range e.subjects(e.sameAsID, s) {
			if a != o {
				emit(store.ETriple{S: a, P: e.sameAsID, O: o})
			}
		}
	}

	// Generic property-sensitive rules that fire for every statement.
	// Skip the schema predicates already handled above to avoid deriving
	// nonsense like "subClassOf subPropertyOf ...".
	if e.isSchemaPredicate(p) {
		return
	}
	if e.contains(store.ETriple{S: p, P: e.typeID, O: e.symmetricID}) {
		emit(store.ETriple{S: o, P: p, O: s})
	}
	if e.contains(store.ETriple{S: p, P: e.typeID, O: e.transitiveID}) {
		for _, z := range e.objects(o, p) {
			emit(store.ETriple{S: s, P: p, O: z})
		}
		for _, a := range e.subjects(p, s) {
			emit(store.ETriple{S: a, P: p, O: o})
		}
	}
	for _, q := range e.objects(p, e.subPropID) {
		emit(store.ETriple{S: s, P: q, O: o})
	}
	for _, q := range e.objects(p, e.inverseID) {
		emit(store.ETriple{S: o, P: q, O: s})
	}
	for _, q := range e.subjects(e.inverseID, p) {
		emit(store.ETriple{S: o, P: q, O: s})
	}
	for _, c := range e.objects(p, e.domainID) {
		emit(store.ETriple{S: s, P: e.typeID, O: c})
	}
	if !e.isLiteral(o) {
		for _, c := range e.objects(p, e.rangeID) {
			emit(store.ETriple{S: o, P: e.typeID, O: c})
		}
	}
}

func (e *engine) isSchemaPredicate(p store.ID) bool {
	switch p {
	case e.typeID, e.subClassID, e.subPropID, e.domainID, e.rangeID,
		e.inverseID, e.sameAsID, e.equivClassID, e.equivPropID:
		return true
	}
	return false
}

func (e *engine) isLiteral(id store.ID) bool {
	return e.dict.Term(id).IsLiteral()
}

// Entail is a convenience for tests and small graphs: it loads ts into a
// scratch store, materializes, and returns base + derived triples.
func Entail(ts []rdf.Triple) ([]rdf.Triple, error) {
	st := store.New()
	st.AddAll("m", ts)
	idx, err := Materialize(st, "m")
	if err != nil {
		return nil, err
	}
	out := st.Triples("m")
	out = append(out, st.Triples(idx)...)
	rdf.SortTriples(out)
	return rdf.DedupTriples(out), nil
}
