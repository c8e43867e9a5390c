// Package relstore implements the baseline the paper argues against: the
// "textbook approach of conceptual data modeling" (Section III), where a
// comprehensive meta-data schema is designed up front and stored in a
// standard relational database. The paper rejects it because "this
// approach is too rigid and it requires a major investment in
// constructing a comprehensive meta-data schema".
//
// This package is a small but honest relational catalog: fixed tables
// with typed columns, arity-checked inserts, scans with predicates, and
// explicit DDL (CreateTable / AddColumn with full-row rewrite) so that
// the cost of evolving the schema is observable. The E10 ablation bench
// loads the same landscape into this catalog and the graph store and
// compares what happens when a brand-new kind of meta-data shows up.
package relstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Column is one typed column of a relational table.
type Column struct {
	Name string
	// Type is informational ("TEXT", "INT"); the store keeps strings.
	Type string
}

// Table is one relational table.
type Table struct {
	Name    string
	Columns []Column
	Rows    [][]string
	colIdx  map[string]int
}

func (t *Table) reindex() {
	t.colIdx = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		t.colIdx[c.Name] = i
	}
}

// Col returns the index of the named column, or -1.
func (t *Table) Col(name string) int {
	i, ok := t.colIdx[name]
	if !ok {
		return -1
	}
	return i
}

// Catalog is the relational meta-data store.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// DDLCount counts schema-changing operations — the "migration cost"
	// the ablation measures.
	DDLCount int
	// RowsRewritten counts rows physically rewritten by migrations.
	RowsRewritten int
}

// New returns an empty catalog (no schema at all).
func New() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

// NewTextbook returns a catalog with the comprehensive schema a textbook
// design for Figure 1 would start from. The error path triggers only if
// the static schema below is edited into an invalid state (say, a
// duplicated table name); callers surface it instead of panicking so
// schema mistakes fail like any other initialization error.
func NewTextbook() (*Catalog, error) {
	c := New()
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	must(c.CreateTable("applications", Column{"app_id", "TEXT"}, Column{"name", "TEXT"}, Column{"owner", "TEXT"}, Column{"area", "TEXT"}))
	must(c.CreateTable("databases", Column{"db_id", "TEXT"}, Column{"app_id", "TEXT"}, Column{"name", "TEXT"}))
	must(c.CreateTable("schemas", Column{"schema_id", "TEXT"}, Column{"db_id", "TEXT"}, Column{"name", "TEXT"}, Column{"layer", "TEXT"}))
	must(c.CreateTable("relations", Column{"rel_id", "TEXT"}, Column{"schema_id", "TEXT"}, Column{"name", "TEXT"}, Column{"kind", "TEXT"}))
	must(c.CreateTable("columns", Column{"col_id", "TEXT"}, Column{"rel_id", "TEXT"}, Column{"name", "TEXT"}, Column{"data_type", "TEXT"}, Column{"length", "INT"}))
	must(c.CreateTable("mappings", Column{"map_id", "TEXT"}, Column{"from_col", "TEXT"}, Column{"to_col", "TEXT"}, Column{"rule", "TEXT"}))
	must(c.CreateTable("interfaces", Column{"itf_id", "TEXT"}, Column{"from_app", "TEXT"}, Column{"to_app", "TEXT"}))
	must(c.CreateTable("users", Column{"user_id", "TEXT"}, Column{"name", "TEXT"}))
	must(c.CreateTable("role_assignments", Column{"user_id", "TEXT"}, Column{"app_id", "TEXT"}, Column{"role", "TEXT"}))
	if firstErr != nil {
		return nil, fmt.Errorf("relstore: textbook schema: %w", firstErr)
	}
	c.DDLCount = 0 // initial schema is free; only evolution counts
	return c, nil
}

// CreateTable adds a new table (DDL).
func (c *Catalog) CreateTable(name string, cols ...Column) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return fmt.Errorf("relstore: table %q already exists", name)
	}
	if len(cols) == 0 {
		return fmt.Errorf("relstore: table %q needs at least one column", name)
	}
	t := &Table{Name: name, Columns: cols}
	t.reindex()
	c.tables[name] = t
	c.DDLCount++
	return nil
}

// AddColumn evolves an existing table (DDL): every stored row is
// rewritten with the default value appended.
func (c *Catalog) AddColumn(table string, col Column, defaultValue string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("relstore: no such table %q", table)
	}
	if t.Col(col.Name) >= 0 {
		return fmt.Errorf("relstore: column %q already exists in %q", col.Name, table)
	}
	t.Columns = append(t.Columns, col)
	t.reindex()
	for i := range t.Rows {
		t.Rows[i] = append(t.Rows[i], defaultValue)
	}
	c.DDLCount++
	c.RowsRewritten += len(t.Rows)
	return nil
}

// DropTable removes a table (DDL).
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("relstore: no such table %q", name)
	}
	delete(c.tables, name)
	c.DDLCount++
	return nil
}

// Tables returns the sorted table names.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// Insert appends one row; arity must match the table schema exactly —
// this is the rigidity the graph approach avoids.
func (c *Catalog) Insert(table string, values ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("relstore: no such table %q (new meta-data kinds need a migration first)", table)
	}
	if len(values) != len(t.Columns) {
		return fmt.Errorf("relstore: table %q wants %d values, got %d", table, len(t.Columns), len(values))
	}
	t.Rows = append(t.Rows, values)
	return nil
}

// Select scans the table and returns rows satisfying the predicate
// (nil = all rows). The catalog's read lock is held while the predicate
// runs, so where must not call locking Catalog methods (Insert, Select,
// Count, ...) — that would self-deadlock.
func (c *Catalog) Select(table string, where func(row []string) bool) ([][]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("relstore: no such table %q", table)
	}
	var out [][]string
	for _, r := range t.Rows {
		if where == nil || where(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// Count returns the number of rows satisfying the predicate.
func (c *Catalog) Count(table string, where func(row []string) bool) (int, error) {
	rows, err := c.Select(table, where)
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

// SearchColumns performs the catalog's keyword search: a LIKE scan over
// column names. Note what is missing compared to the graph: no class
// hierarchy, no grouping under inherited concepts, no synonym expansion —
// the result is a flat list.
func (c *Catalog) SearchColumns(term string) ([][]string, error) {
	needle := strings.ToLower(term)
	return c.Select("columns", func(row []string) bool {
		return strings.Contains(strings.ToLower(row[2]), needle)
	})
}

// LineageBackward follows the mappings table from a column id to its
// transitive sources.
func (c *Catalog) LineageBackward(colID string) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables["mappings"]
	if !ok {
		return nil, fmt.Errorf("relstore: no mappings table")
	}
	fromIdx, toIdx := t.Col("from_col"), t.Col("to_col")
	incoming := map[string][]string{}
	for _, r := range t.Rows {
		incoming[r[toIdx]] = append(incoming[r[toIdx]], r[fromIdx])
	}
	seen := map[string]bool{colID: true}
	frontier := []string{colID}
	var out []string
	for len(frontier) > 0 {
		var next []string
		for _, n := range frontier {
			for _, src := range incoming[n] {
				if !seen[src] {
					seen[src] = true
					out = append(out, src)
					next = append(next, src)
				}
			}
		}
		frontier = next
	}
	sort.Strings(out)
	return out, nil
}

// RowCount returns the total number of rows across all tables.
func (c *Catalog) RowCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, t := range c.tables {
		n += len(t.Rows)
	}
	return n
}
