package sparql_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mdw/internal/sparql"
)

// TestJoinOrderProperties: over random basic graph patterns with filters
// from the differential generator, the order the planner chooses never
// costs more under its own model than the greedy order it started from,
// planning twice gives the same plan, and the plan's results are the naive
// evaluator's.
func TestJoinOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	improved := 0
	for _, fx := range []diffFixture{simpleFixture(rng), entailedFixture(rng)} {
		g := &queryGen{rng: rng, fx: fx}
		for i := 0; i < 150; i++ {
			where := g.bgp(2 + rng.Intn(3))
			for n := rng.Intn(3); n > 0; n-- {
				where += g.filter()
			}
			if rng.Intn(3) == 0 {
				where += fmt.Sprintf(`FILTER regex(STR(?%s), "%d") `, g.variable(), rng.Intn(8))
			}
			text := "SELECT * WHERE { " + where + "}"
			q, err := sparql.Parse(text)
			if err != nil {
				t.Fatalf("[%s #%d] generator emitted unparsable query %q: %v", fx.name, i, text, err)
			}
			p := q.Plan(fx.src, fx.dict)
			chosen, seed := sparql.BlockCosts(p)
			for b := range chosen {
				if chosen[b] > seed[b] {
					t.Errorf("[%s #%d] block %d of %q: chosen order costs %g, greedy %g", fx.name, i, b, text, chosen[b], seed[b])
				}
				if chosen[b] < seed[b] {
					improved++
				}
			}
			if again := q.Plan(fx.src, fx.dict).String(); again != p.String() {
				t.Errorf("[%s #%d] re-planning %q changed the plan:\n%s---\n%s", fx.name, i, text, p, again)
			}
			res, _, err := p.Run(context.Background(), sparql.RunOptions{})
			if err != nil {
				t.Fatalf("[%s #%d] exec failed for %q: %v", fx.name, i, text, err)
			}
			naive, err := q.ExecNaive(fx.src, fx.dict)
			if err != nil {
				t.Fatalf("[%s #%d] naive exec failed for %q: %v", fx.name, i, text, err)
			}
			if pk, nk := rowKeys(res), rowKeys(naive); !sameMultiset(pk, nk) {
				t.Errorf("[%s #%d] divergence on %q: planned %d rows, naive %d", fx.name, i, text, len(pk), len(nk))
			}
		}
	}
	if improved == 0 {
		t.Error("the search never improved on the greedy order: the property is vacuous")
	}
}
