// Package store implements the RDF storage substrate of the meta-data
// warehouse: a dictionary-encoded, triple-indexed store with named models.
//
// The paper persists its meta-data graph in Oracle's "RDF model tables"
// (Section III.B). This package plays that role: triples live in named
// models (SEM_MODELS('DWH_CURR') in Listing 1 addresses one such model),
// terms are dictionary-encoded once, and each model keeps SPO/POS/OSP
// indexes so that every triple-pattern access path is supported.
package store

import (
	"slices"
	"sync"

	"mdw/internal/rdf"
)

// ID is a dictionary-encoded term identifier. ID 0 is reserved and never
// assigned, which lets 0 double as the wildcard in pattern matching.
type ID uint32

// Wildcard matches any term in pattern lookups.
const Wildcard ID = 0

// Dict interns rdf.Term values to dense integer IDs. It is safe for
// concurrent use. Interning is shared across all models of a Store so a
// term has one identity everywhere, mirroring the single value table
// underneath Oracle's RDF models.
type Dict struct {
	mu    sync.RWMutex
	ids   map[rdf.Term]ID
	terms []rdf.Term // terms[id-1] is the term for id
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[rdf.Term]ID)}
}

// Intern returns the ID for term, assigning a fresh one if necessary.
func (d *Dict) Intern(t rdf.Term) ID {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.ids[t]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id = ID(len(d.terms))
	d.ids[t] = id
	return id
}

// Lookup returns the ID for term without interning. The second result
// reports whether the term is known.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	return id, ok
}

// Term returns the term for id. It panics if id was never assigned, which
// indicates a logic error in the caller (IDs only come from this Dict).
func (d *Dict) Term(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[id-1]
}

// Len returns the number of terms interned so far, which is also the
// highest ID assigned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Since returns a copy of the term table from ID n+1 on, in ID order:
// element i is the term with ID n+i+1, and Since(0) is the whole table.
// The dictionary is append-only, so what a caller has read stays a valid
// prefix of the live dictionary forever — the durable checkpoint writer
// persists the table, and then only its growth, to preserve IDs across a
// restart.
func (d *Dict) Since(n int) []rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return slices.Clone(d.terms[n:])
}
