package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"mdw/internal/dbpedia"
	"mdw/internal/history"
	"mdw/internal/rdf"
)

// metaModel holds warehouse bookkeeping (release history records) as
// triples, so the records reach the write-ahead log of a durable
// warehouse and come back with the rest of the data directory.
const metaModel = "MDW$META"

// syncMeta rewrites the meta model from the historian's records, all of
// them in one write.
func (w *Warehouse) syncMeta() {
	w.st.DropModel(metaModel)
	var ts []rdf.Triple
	for _, v := range w.hist.Versions() {
		subj := rdf.IRI(fmt.Sprintf("%sversions/%d", rdf.MDWNS, v.Number))
		ts = append(ts,
			rdf.T(subj, rdf.Type, rdf.IRI(rdf.MDWVersion)),
			rdf.T(subj, rdf.IRI(rdf.MDWVersionNumber), rdf.Integer(int64(v.Number))),
			rdf.T(subj, rdf.IRI(rdf.MDWVersionTag), rdf.Literal(v.Tag)),
			rdf.T(subj, rdf.IRI(rdf.MDWVersionAt), rdf.TypedLiteral(v.At.UTC().Format(time.RFC3339), rdf.XSDDate)),
			rdf.T(subj, rdf.IRI(rdf.MDWVersionModel), rdf.Literal(v.Model)),
			rdf.T(subj, rdf.IRI(rdf.MDWVersionTriples), rdf.Integer(int64(v.Triples))))
		if v.Pruned {
			ts = append(ts, rdf.T(subj, rdf.IRI(rdf.MDWVersionPruned), rdf.Literal("true")))
		}
	}
	if len(ts) > 0 {
		w.st.AddAll(metaModel, ts)
	}
}

// restoreMeta rebuilds the historian's version records from the meta
// model.
func (w *Warehouse) restoreMeta() error {
	if !w.st.HasModel(metaModel) {
		return nil
	}
	var versions []history.Version
	for _, t := range w.st.Match(metaModel, rdf.Term{}, rdf.Type, rdf.IRI(rdf.MDWVersion)) {
		v := history.Version{}
		get := func(pred string) (string, bool) {
			for _, m := range w.st.Match(metaModel, t.S, rdf.IRI(pred), rdf.Term{}) {
				return m.O.Value, true
			}
			return "", false
		}
		if s, ok := get(rdf.MDWVersionNumber); ok {
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("core: bad version number %q", s)
			}
			v.Number = n
		}
		v.Tag, _ = get(rdf.MDWVersionTag)
		if s, ok := get(rdf.MDWVersionAt); ok {
			at, err := time.Parse(time.RFC3339, s)
			if err != nil {
				return fmt.Errorf("core: bad version timestamp %q", s)
			}
			v.At = at
		}
		v.Model, _ = get(rdf.MDWVersionModel)
		if s, ok := get(rdf.MDWVersionPruned); ok && s == "true" {
			v.Pruned = true
		}
		if s, ok := get(rdf.MDWVersionTriples); ok {
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("core: bad version size %q", s)
			}
			v.Triples = n
		}
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i].Number < versions[j].Number })
	if len(versions) == 0 {
		return nil
	}
	return w.hist.Restore(versions)
}

// restoreThesaurus rebuilds synonym expansion from the DBpedia-style
// triples present in the base model.
func (w *Warehouse) restoreThesaurus() {
	var extract []rdf.Triple
	for _, p := range []string{dbpedia.Redirects, dbpedia.Disambiguates} {
		extract = append(extract, w.st.Match(w.model, rdf.Term{}, rdf.IRI(p), rdf.Term{})...)
	}
	if len(extract) > 0 {
		w.thesaurus = dbpedia.FromTriples(extract)
	}
}
