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
	"sync"
	"sync/atomic"

	"mdw/internal/rdf"
)

// ID is a dictionary-encoded term identifier. ID 0 is reserved and never
// assigned, which lets 0 double as the wildcard in pattern matching.
type ID uint32

// Wildcard matches any term in pattern lookups.
const Wildcard ID = 0

// Dict interns rdf.Term values to dense integer IDs. It is safe for
// concurrent use, and Term takes no lock. Interning is shared across all
// models of a Store so a term has one identity everywhere, mirroring the
// single value table underneath Oracle's RDF models.
type Dict struct {
	mu  sync.RWMutex
	ids map[rdf.Term]ID
	n   int // terms interned, under mu
	// chunks is the term table: the term for id is entry id-1 of the
	// chunks laid end to end. Intern fills the last chunk in place under mu
	// and, when it is full, publishes a directory one chunk longer. A term
	// never moves once written, so Term reads without a lock, and growing
	// the table never copies a term.
	chunks atomic.Pointer[[]*termChunk]
}

// chunkBits sizes the term table's chunks at 1 << chunkBits terms.
const chunkBits = 10

type termChunk [1 << chunkBits]rdf.Term

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{ids: make(map[rdf.Term]ID)}
	d.chunks.Store(new([]*termChunk))
	return d
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
	chunks := *d.chunks.Load()
	if d.n>>chunkBits == len(chunks) {
		// A reader indexes a directory only below its own length, so
		// appending in place past it is safe.
		chunks = append(chunks, new(termChunk))
		d.chunks.Store(&chunks)
	}
	chunks[d.n>>chunkBits][d.n&(1<<chunkBits-1)] = t
	d.n++
	id = ID(d.n)
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

// Term returns the term for id, without a lock: whoever holds id learned
// it after Intern wrote the term (IDs only come from this Dict, through
// data published after the interning). An id never assigned is a logic
// error in the caller; Term panics or returns the zero Term.
func (d *Dict) Term(id ID) rdf.Term {
	i := int(id) - 1
	return (*d.chunks.Load())[i>>chunkBits][i&(1<<chunkBits-1)]
}

// Len returns the number of terms interned so far, which is also the
// highest ID assigned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
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
	out := make([]rdf.Term, 0, d.n-n)
	for id := n + 1; id <= d.n; id++ {
		out = append(out, d.Term(ID(id)))
	}
	return out
}
