package sparql

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// EXPLAIN ANALYZE: operator-level runtime statistics.
//
// Every plan operator — triple pattern, FILTER/(NOT) EXISTS constraint,
// OPTIONAL, UNION, nested group — is assigned a stat slot index at plan
// time (assignStatSlots, construction-only, so the Plan immutability
// contract holds). An analyzed execution carries one execStatsRec whose
// flat ops slice is indexed by those slots; the evaluator updates it
// through atomic adds, so morsel workers can share the record
// race-free. When no analysis was requested the record pointer is nil
// and every instrumentation site costs exactly one pointer check.
//
// After execution the flat record is folded back into an ExecStats tree
// that mirrors the plan shape, rendered through the same code path as
// EXPLAIN with `estimated=N actual=M (×ratio)` annotations, and scanned
// for the worst per-operator misestimation, which Plan.Run folds into the
// statement's row.

// opStats accumulates runtime evidence for one plan operator. All fields
// are atomics because morsel scans update them from worker
// goroutines sharing one record.
type opStats struct {
	// loops counts how often the operator started (for a triple pattern:
	// how many upstream solutions probed it; for a constraint: how many
	// solutions it tested).
	loops atomic.Int64
	// rows counts the solutions the operator produced (for a constraint:
	// the solutions that passed).
	rows atomic.Int64
	// durNs is the inclusive wall time spent at or below the operator.
	// Only triple patterns and constraints are timed; structural steps
	// (OPTIONAL/UNION/group) inherit their children's time.
	durNs atomic.Int64
}

// execStatsRec is the per-execution accumulator: one opStats per plan
// slot plus query-wide resource counters.
type execStatsRec struct {
	ops []opStats
	// scanned counts triples examined (index probes streamed through
	// onTriple plus path-engine edge expansions).
	scanned atomic.Int64
	// decodes counts dictionary ID→term decodes (the engine's dominant
	// allocation source; a ReadMemStats-free allocation proxy).
	decodes atomic.Int64

	// Merger-side summary fields; written on the calling goroutine only.
	distinctDropped int64
	groups          int64
	limitStopped    bool
	// indexed is the name match a KeyIndex answered, if any.
	indexed *plannedConstraint
}

func newExecStatsRec(p *Plan) *execStatsRec {
	return &execStatsRec{ops: make([]opStats, p.nstats)}
}

// assignStatSlots walks the plan exactly like the executor will and gives
// every operator its index into the per-execution stats slice. Called
// once at the end of PlanOpts; the indices are construction-time fields
// covered by the Plan immutability contract.
func (p *Plan) assignStatSlots() {
	n := 0
	var walkGroup func(g *planGroup)
	var walkConstraint func(c *plannedConstraint)
	walkConstraint = func(c *plannedConstraint) {
		c.si = n
		n++
		walkGroup(c.group) // EXISTS body, nil for plain filters
	}
	walkGroup = func(g *planGroup) {
		if g == nil {
			return
		}
		for _, st := range g.steps {
			switch s := st.(type) {
			case *bgpStep:
				for _, pp := range s.patterns {
					pp.si = n
					n++
					for _, c := range pp.pushed {
						walkConstraint(c)
					}
				}
			case *filterStep:
				walkConstraint(s.c)
			case *optionalStep:
				s.si = n
				n++
				walkGroup(s.group)
			case *unionStep:
				s.si = n
				n++
				walkGroup(s.left)
				walkGroup(s.right)
			case *groupStep:
				s.si = n
				n++
				walkGroup(s.group)
			}
		}
	}
	walkGroup(p.root)
	p.nstats = n
}

// OpStats is the runtime evidence of one plan operator, arranged as a
// tree mirroring the plan shape (GET /api/query?...&analyze=1 returns it
// as JSON).
type OpStats struct {
	// Op names the operator kind: pattern, filter, exists, optional,
	// union, group.
	Op string `json:"op"`
	// Detail is the operator's rendered form (the pattern or expression).
	Detail string `json:"detail,omitempty"`
	// Estimate is the planner's per-loop cardinality estimate (for a
	// constraint: Loops times the selectivity the join order assumed); -1
	// when there is none (structural steps, plans built without a source).
	Estimate float64 `json:"estimate"`
	// Rows is the total number of solutions produced across all loops.
	Rows int64 `json:"rows"`
	// Loops is how many times the operator ran (0 = never executed).
	Loops int64 `json:"loops"`
	// Time is the inclusive wall time (patterns and constraints only).
	Time time.Duration `json:"timeNs"`
	// Ratio is the symmetric misestimation factor between Estimate and
	// per-loop actual rows, a constraint's Rows (>= 1; 0 when none applies).
	Ratio    float64    `json:"ratio,omitempty"`
	Children []*OpStats `json:"children,omitempty"`
}

// ExecStats is the result of one analyzed execution: the operator tree,
// query-wide resource accounting, the parallel evidence, and the worst
// planner misestimation found. String renders the plan with per-operator
// actuals through the same code that renders EXPLAIN.
type ExecStats struct {
	Root     *OpStats      `json:"root"`
	Rows     int           `json:"rows"`
	Duration time.Duration `json:"durationNs"`
	// Strategy is "morsel" when the root ran as a morsel scan, with the
	// workers it used (1: inline) and its tasks, "serial" otherwise.
	Strategy string `json:"strategy"`
	Workers  int    `json:"workers,omitempty"`
	Tasks    int    `json:"tasks,omitempty"`
	// Resource accounting: triples examined and terms decoded.
	RowsScanned int64 `json:"rowsScanned"`
	TermDecodes int64 `json:"termDecodes"`
	// DistinctDropped counts solutions removed by streaming DISTINCT;
	// Groups the aggregation groups built; LimitStopped whether a
	// streamed LIMIT cut execution short.
	DistinctDropped int64 `json:"distinctDropped,omitempty"`
	Groups          int64 `json:"groups,omitempty"`
	LimitStopped    bool  `json:"limitStopped,omitempty"`
	// MaxRatio is the largest per-operator misestimation factor observed
	// (over operators that actually ran); WorstOp names the operator.
	MaxRatio float64 `json:"maxRatio,omitempty"`
	WorstOp  string  `json:"worstOp,omitempty"`

	plan *Plan
	rec  *execStatsRec
}

// misestRatio is the symmetric estimate-vs-actual factor, +1-smoothed so
// zero estimates and empty results stay finite: ×1 is a perfect
// estimate, ×10 means off by an order of magnitude either way.
func misestRatio(est, actual float64) float64 {
	return math.Max((est+1)/(actual+1), (actual+1)/(est+1))
}

// finishAnalyze folds the flat record into the public tree and finds its
// worst misestimation.
func (p *Plan) finishAnalyze(rec *execStatsRec, info execInfo, d time.Duration, rows int) *ExecStats {
	st := &ExecStats{
		Rows:            rows,
		Duration:        d,
		Strategy:        "serial",
		Workers:         info.workers,
		Tasks:           info.tasks,
		RowsScanned:     rec.scanned.Load(),
		TermDecodes:     rec.decodes.Load(),
		DistinctDropped: rec.distinctDropped,
		Groups:          rec.groups,
		LimitStopped:    rec.limitStopped,
		plan:            p,
		rec:             rec,
	}
	if info.workers > 0 {
		st.Strategy = "morsel"
	}
	st.Root = &OpStats{Op: "plan", Estimate: -1, Rows: int64(rows), Loops: 1, Time: d}
	st.Root.Children = p.buildOpTree(p.root, rec)
	// The worst misestimation: patterns and constraints carry estimates,
	// and only operators that actually ran are evidence (an operator with
	// zero loops was starved by its upstream, not misestimated).
	if p.src != nil {
		var scan func(ops []*OpStats)
		scan = func(ops []*OpStats) {
			for _, op := range ops {
				if op.Ratio > st.MaxRatio {
					st.MaxRatio = op.Ratio
					st.WorstOp = op.Detail
				}
				scan(op.Children)
			}
		}
		scan(st.Root.Children)
	}
	return st
}

// buildOpTree mirrors assignStatSlots over the same plan walk, pairing
// each operator with its slot.
func (p *Plan) buildOpTree(g *planGroup, rec *execStatsRec) []*OpStats {
	if g == nil {
		return nil
	}
	var out []*OpStats
	constraintNode := func(c *plannedConstraint) *OpStats {
		op := &rec.ops[c.si]
		kind, detail := "filter", ""
		if c.exists != nil {
			kind = "exists"
			detail = "FILTER EXISTS"
			if c.exists.Negated {
				detail = "FILTER NOT EXISTS"
			}
		} else {
			detail = exprString(c.filter.Expr)
		}
		node := &OpStats{
			Op: kind, Detail: detail,
			Rows: op.rows.Load(), Loops: op.loops.Load(),
			Time:     time.Duration(op.durNs.Load()),
			Children: p.buildOpTree(c.group, rec),
		}
		node.Estimate = float64(node.Loops) * selectivity(c)
		if node.Loops > 0 {
			node.Ratio = misestRatio(node.Estimate, float64(node.Rows))
		}
		return node
	}
	for _, st := range g.steps {
		switch s := st.(type) {
		case *bgpStep:
			for _, pp := range s.patterns {
				op := &rec.ops[pp.si]
				node := &OpStats{
					Op: "pattern",
					Detail: fmt.Sprintf("%s %s %s",
						explainNode(pp.tp.S), explainPath(pp.tp.P), explainNode(pp.tp.O)),
					Estimate: -1,
					Rows:     op.rows.Load(),
					Loops:    op.loops.Load(),
					Time:     time.Duration(op.durNs.Load()),
				}
				if p.src != nil {
					node.Estimate = pp.est
					if node.Loops > 0 {
						node.Ratio = misestRatio(pp.est, float64(node.Rows)/float64(node.Loops))
					}
				}
				for _, c := range pp.pushed {
					node.Children = append(node.Children, constraintNode(c))
				}
				out = append(out, node)
			}
		case *filterStep:
			out = append(out, constraintNode(s.c))
		case *optionalStep:
			op := &rec.ops[s.si]
			out = append(out, &OpStats{
				Op: "optional", Estimate: -1,
				Rows: op.rows.Load(), Loops: op.loops.Load(),
				Children: p.buildOpTree(s.group, rec),
			})
		case *unionStep:
			op := &rec.ops[s.si]
			node := &OpStats{
				Op: "union", Estimate: -1,
				Rows: op.rows.Load(), Loops: op.loops.Load(),
			}
			node.Children = append(p.buildOpTree(s.left, rec), p.buildOpTree(s.right, rec)...)
			out = append(out, node)
		case *groupStep:
			op := &rec.ops[s.si]
			out = append(out, &OpStats{
				Op: "group", Estimate: -1,
				Rows: op.rows.Load(), Loops: op.loops.Load(),
				Children: p.buildOpTree(s.group, rec),
			})
		}
	}
	return out
}

// String renders the analyzed plan: the ordinary EXPLAIN rendering with
// per-operator `estimated=N actual=M (×ratio)` annotations, followed by
// the execution summary.
func (st *ExecStats) String() string {
	var b strings.Builder
	b.WriteString(st.plan.render(st.rec))
	fmt.Fprintf(&b, "ACTUAL: %d rows in %s", st.Rows, fmtDur(st.Duration))
	if st.Strategy != "serial" {
		fmt.Fprintf(&b, ", %s x%d workers (%d tasks)", st.Strategy, st.Workers, st.Tasks)
	}
	fmt.Fprintf(&b, "; scanned %d triples, decoded %d terms", st.RowsScanned, st.TermDecodes)
	if st.DistinctDropped > 0 {
		fmt.Fprintf(&b, ", DISTINCT dropped %d", st.DistinctDropped)
	}
	if st.Groups > 0 {
		fmt.Fprintf(&b, ", %d groups", st.Groups)
	}
	if st.LimitStopped {
		b.WriteString(", stopped at LIMIT")
	}
	b.WriteByte('\n')
	if st.MaxRatio >= misestimateThreshold {
		fmt.Fprintf(&b, "MISESTIMATE: worst operator %s off by x%.1f (threshold x%.0f)\n",
			st.WorstOp, st.MaxRatio, misestimateThreshold)
	}
	return b.String()
}

// fmtDur rounds a duration for plan annotations: enough precision to
// compare operators, not enough to churn golden output width.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(10 * time.Nanosecond).String()
	}
}

// fmtCount renders a (possibly per-loop averaged) row count: whole
// numbers without a fraction, averages with one decimal.
func fmtCount(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.1f", f)
}

// misestimateThreshold is the factor by which an estimate must be off
// (in either direction, +1-smoothed) before an analyzed execution counts
// as misestimated — mdw_sparql_misestimate_total and the MISESTIMATE
// line: one order of magnitude minus headroom for honest rounding.
const misestimateThreshold = 8.0
