package audit

import (
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// TestGraphWithoutRoleVocabulary: a store whose dictionary has never seen
// dm:partOf, dm:hasRole, dm:ownedBy, dm:Role or dt:isMappedTo. An
// application is still its own application; nothing else is found, and
// no missing term is read as "any predicate".
func TestGraphWithoutRoleVocabulary(t *testing.T) {
	st := store.New()
	app, col := rdf.IRI(rdf.InstNS+"app"), rdf.IRI(rdf.InstNS+"col")
	st.AddAll("m", []rdf.Triple{
		rdf.T(app, rdf.Type, rdf.IRI(rdf.DMNS+"Application")),
		rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column")),
		rdf.T(col, rdf.IRI(rdf.MDWDataType), app), // an edge no walk may follow
	})
	svc := New(st, "m")
	rep, err := svc.WhoCanAccess(app, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 1 || rep.Apps[0] != app || len(rep.Grants) != 0 {
		t.Errorf("audit of the application = %+v", rep)
	}
	rep, err = svc.WhoCanAccess(col, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 0 || len(rep.Grants) != 0 {
		t.Errorf("audit of a column outside any containment = %+v", rep)
	}
}
