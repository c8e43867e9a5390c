package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultStatementCapacity bounds the default statement table: the
// top-N-by-total-time fingerprints survive; beyond that, recording a new
// fingerprint evicts the entry with the least accumulated time
// (pg_stat_statements' dealloc policy).
const DefaultStatementCapacity = 512

// StatementStat is one aggregated row of the statement table: every
// execution and results-cache hit of queries sharing a fingerprint (the
// query text with literals and constant subjects/objects normalized
// away), folded into one record of the statement.
type StatementStat struct {
	Fingerprint string `json:"fingerprint"`
	Query       string `json:"query"` // example text: first execution seen
	// Calls counts executions and results-cache hits, Hits the hits
	// alone; Rows counts the solutions of both. The latency summary and
	// MaxPlan describe the Calls-Hits executions only, so a hit's lookup
	// time never passes for the statement's.
	Calls int64         `json:"calls"`
	Hits  int64         `json:"hits"`
	Rows  int64         `json:"rows"`
	Total time.Duration `json:"totalNs"`
	Min   time.Duration `json:"minNs"`
	Max   time.Duration `json:"maxNs"`
	Mean  time.Duration `json:"meanNs"`
	// MaxPlan is the estimate plan of the slowest execution, Parallelism
	// its degree of parallelism (1 = serial; 0 = the plan did not report
	// one).
	MaxPlan     string    `json:"maxPlan,omitempty"`
	Parallelism int       `json:"parallelism,omitempty"`
	LastSeen    time.Time `json:"lastSeen"`
	// Resource accounting, accumulated from analyzed executions only
	// (AnalyzedCalls of the Calls): index triples scanned and dictionary
	// terms decoded on behalf of the statement.
	RowsScanned   int64 `json:"rowsScanned,omitempty"`
	TermDecodes   int64 `json:"termDecodes,omitempty"`
	AnalyzedCalls int64 `json:"analyzedCalls,omitempty"`
	// MaxRatio is the worst per-operator estimate/actual factor an
	// analyzed execution found, WorstOp that operator and WorstPlan the
	// analyzed plan it came from. Executions stopped early (LIMIT, ASK)
	// are not evidence and leave them alone.
	MaxRatio  float64 `json:"maxRatio,omitempty"`
	WorstOp   string  `json:"worstOp,omitempty"`
	WorstPlan string  `json:"worstPlan,omitempty"`
}

// ParallelPlan is optionally implemented by recorded plans that carry a
// degree of parallelism (the SPARQL Plan does); Record captures it so
// `mdw top` can show which statements fan out.
type ParallelPlan interface {
	Parallelism() int
}

// Execution is what one Record call folds into a statement's row: one
// execution, or one results-cache hit (Hit set; D and Plan unused).
type Execution struct {
	Rows int
	D    time.Duration
	Hit  bool
	// Plan is the estimate plan, kept while this is the row's slowest
	// execution and rendered at Snapshot.
	Plan fmt.Stringer
	// Analyzed marks an execution that collected operator statistics, and
	// Scanned and Decodes are its resource counters. Ratio is its worst
	// per-operator misestimate (0 when it stopped early), WorstOp that
	// operator, and WorstPlan the analyzed plan, rendered only when Ratio
	// becomes the row's worst: an analyzed plan holds the version of the
	// graph it ran on, which the row must not keep.
	Analyzed         bool
	Scanned, Decodes int64
	Ratio            float64
	WorstOp          string
	WorstPlan        fmt.Stringer
}

// stmtEntry is the mutable accumulator behind one StatementStat. The
// slowest plan is kept as a Stringer and only rendered at Snapshot time,
// so the per-execution cost is a map probe and a few adds.
type stmtEntry struct {
	query     string
	calls     int64
	hits      int64
	rows      int64
	total     time.Duration
	min, max  time.Duration
	maxPlan   fmt.Stringer
	maxPar    int
	lastSeen  time.Time
	scanned   int64
	decodes   int64
	analyzed  int64
	maxRatio  float64
	worstOp   string
	worstPlan string
}

// Statements is a bounded fingerprint → statistics table, safe for
// concurrent use.
type Statements struct {
	mu      sync.Mutex
	cap     int
	m       map[string]*stmtEntry
	evicted int64
}

// NewStatements returns a table retaining at most cap fingerprints
// (cap <= 0 selects DefaultStatementCapacity).
func NewStatements(cap int) *Statements {
	if cap <= 0 {
		cap = DefaultStatementCapacity
	}
	return &Statements{cap: cap, m: make(map[string]*stmtEntry)}
}

// Record folds one execution or results-cache hit into the fingerprint's
// row; query is the raw statement text, kept as the example on first
// sight.
func (s *Statements) Record(fp, query string, x Execution) {
	if fp == "" {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[fp]
	if !ok {
		if len(s.m) >= s.cap {
			s.evictLocked()
		}
		e = &stmtEntry{query: query}
		s.m[fp] = e
	}
	e.calls++
	e.rows += int64(x.Rows)
	e.lastSeen = now
	if x.Hit {
		e.hits++
		return
	}
	first := e.calls-e.hits == 1
	e.total += x.D
	if first || x.D < e.min {
		e.min = x.D
	}
	if first || x.D > e.max {
		e.max = x.D
		if x.Plan != nil {
			e.maxPlan, e.maxPar = x.Plan, 0
			if pp, ok := x.Plan.(ParallelPlan); ok {
				e.maxPar = pp.Parallelism()
			}
		}
	}
	if !x.Analyzed {
		return
	}
	e.analyzed++
	e.scanned += x.Scanned
	e.decodes += x.Decodes
	if x.Ratio > e.maxRatio {
		e.maxRatio, e.worstOp, e.worstPlan = x.Ratio, x.WorstOp, ""
		if x.WorstPlan != nil {
			e.worstPlan = x.WorstPlan.String()
		}
	}
}

// evictLocked removes the entry with the least total time. Called with
// s.mu held, and only when a new fingerprint arrives at capacity, so the
// O(len) scan is off the steady-state path.
func (s *Statements) evictLocked() {
	var victim string
	var least time.Duration
	first := true
	for fp, e := range s.m {
		if first || e.total < least {
			victim, least, first = fp, e.total, false
		}
	}
	if victim != "" {
		delete(s.m, victim)
		s.evicted++
	}
}

// Evicted returns the number of fingerprints dropped at capacity.
func (s *Statements) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Len returns the number of retained fingerprints.
func (s *Statements) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Reset clears the table (tests). The eviction counter
// belongs to the table contents, so it resets too — otherwise a reset
// table reports phantom evictions that never happened to any row it
// holds.
func (s *Statements) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = make(map[string]*stmtEntry)
	s.evicted = 0
}

// Snapshot returns the table sorted by total time, highest first. Plans
// are rendered here — outside the lock, from the values copied under it
// — so readers, not query executions, pay the rendering.
func (s *Statements) Snapshot() []StatementStat {
	type pending struct {
		stat StatementStat
		plan fmt.Stringer
	}
	s.mu.Lock()
	rows := make([]pending, 0, len(s.m))
	for fp, e := range s.m {
		st := StatementStat{
			Fingerprint: fp,
			Query:       e.query,
			Calls:       e.calls,
			Hits:        e.hits,
			Rows:        e.rows,
			Total:       e.total,
			Min:         e.min,
			Max:         e.max,
			Parallelism: e.maxPar,
			LastSeen:    e.lastSeen,

			RowsScanned:   e.scanned,
			TermDecodes:   e.decodes,
			AnalyzedCalls: e.analyzed,
			MaxRatio:      e.maxRatio,
			WorstOp:       e.worstOp,
			WorstPlan:     e.worstPlan,
		}
		if n := e.calls - e.hits; n > 0 {
			st.Mean = e.total / time.Duration(n)
		}
		rows = append(rows, pending{stat: st, plan: e.maxPlan})
	}
	s.mu.Unlock()
	out := make([]StatementStat, 0, len(rows))
	for _, p := range rows {
		if p.plan != nil {
			p.stat.MaxPlan = p.plan.String()
		}
		out = append(out, p.stat)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}
