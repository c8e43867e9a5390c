package sparql

// BlockCosts returns, for every basic graph pattern of the plan in plan
// order, the model cost of the join order chosen and of the greedy order
// the search started from — for the external property tests.
func BlockCosts(p *Plan) (chosen, seed []float64) {
	var walk func(g *planGroup)
	walk = func(g *planGroup) {
		if g == nil {
			return
		}
		for _, st := range g.steps {
			switch s := st.(type) {
			case *bgpStep:
				chosen, seed = append(chosen, s.cost), append(seed, s.seedCost)
				for _, pp := range s.patterns {
					for _, c := range pp.pushed {
						walk(c.group)
					}
				}
			case *filterStep:
				walk(s.c.group)
			case *optionalStep:
				walk(s.group)
			case *unionStep:
				walk(s.left)
				walk(s.right)
			case *groupStep:
				walk(s.group)
			}
		}
	}
	walk(p.root)
	return chosen, seed
}

// Bindings returns every row of the result, for tests that compare or
// range over whole results.
func (r *Result) Bindings() []Binding {
	rows := make([]Binding, r.n)
	for i := range rows {
		rows[i] = r.Row(i)
	}
	return rows
}
