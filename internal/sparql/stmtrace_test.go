package sparql

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/store"
)

// TestConcurrentRecordSnapshotReplan is the -race proof for the
// statement table's lazy plan rendering: Snapshot copies the memoized
// fmt.Stringer under the lock and renders it outside, while executions
// keep planning and recording fresh plans and the append-only dictionary
// keeps growing under the planner's constant lookups. The invariant under
// test: nothing mutates a published plan, so rendering outside the lock
// cannot race. See Plan.String.
func TestConcurrentRecordSnapshotReplan(t *testing.T) {
	// The results cache would serve repeats without planning; this test
	// needs every execution to plan and record.
	rescache.Disable()
	defer rescache.Enable(0, 0)

	st := store.New()
	st.Add("m", rdf.T(rdf.IRI("http://x/s"), rdf.IRI("http://x/p"), rdf.IRI("http://x/o")))
	// Detached snapshot: the executing source must not be mutated while
	// queries stream over it (load-then-query discipline); the shared
	// dictionary, which has its own lock, is what churns.
	src := st.SnapshotModel("m")

	// The constant <http://x/never-interned> never enters the dictionary,
	// so every plan carries an unresolved constant.
	q, err := Parse(`SELECT ?s WHERE { ?s <http://x/p> ?o . ?s <http://x/never-interned> ?z }`)
	if err != nil {
		t.Fatal(err)
	}

	stmts := obs.DefaultStatements()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() { // executor: plan + Record churn
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if _, err := run(q, src, st.Dict()); err != nil {
				t.Errorf("exec: %v", err)
				return
			}
		}
		close(stop)
	}()
	go func() { // snapshotter: renders memoized plans outside the lock
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range stmts.Snapshot() {
				if s.Fingerprint == "" {
					t.Error("empty fingerprint in snapshot")
					return
				}
			}
		}
	}()
	go func() { // dictionary growth under the planner's lookups
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.Add("other", rdf.T(
				rdf.IRI("http://x/grow"+strconv.Itoa(i)),
				rdf.IRI("http://x/p"),
				rdf.IRI("http://x/o")))
		}
	}()
	wg.Wait()

	// The plan the table memoized must still render.
	for _, s := range stmts.Snapshot() {
		if strings.Contains(s.Query, "never-interned") && s.MaxPlan == "" {
			t.Error("recorded plan did not render")
		}
	}
}
