package audit

import (
	"strings"
	"testing"

	"mdw/internal/landscape"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/staging"
	"mdw/internal/store"
)

func fixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	_, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(
		[]*staging.Export{landscape.Figure3Export()},
		ontology.DWH().Triples(),
	)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func item(path string) rdf.Term {
	return staging.InstanceIRI(strings.Split(path, "/")...)
}

func TestDirectAccess(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	// customer_id lives in application1: bob (administrator), carol
	// (business_user), and bob as owner.
	rep, err := svc.WhoCanAccess(item("application1/dwhdb/mart/v_customer/customer_id"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 1 || rdf.LocalName(rep.Apps[0].Value) != "application1" {
		t.Fatalf("apps = %v", rep.Apps)
	}
	users := rep.Users()
	if len(users) != 2 || users[0] != "bob" || users[1] != "carol" {
		t.Fatalf("users = %v", users)
	}
	roles := map[string]string{}
	for _, g := range rep.Grants {
		if g.Via != "owner" {
			roles[g.UserName] = g.RoleClass
		}
	}
	if roles["bob"] != "Administrator" || roles["carol"] != "Business_User" {
		t.Errorf("roles = %v", roles)
	}
}

func TestLineageExtendedAccess(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	target := item("application1/dwhdb/mart/v_customer/customer_id")

	direct, err := svc.WhoCanAccess(target, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := svc.WhoCanAccess(target, true)
	if err != nil {
		t.Fatal(err)
	}
	// The lineage audit additionally reaches pb_frontend, where alice is
	// business owner.
	if len(full.Apps) != 2 {
		t.Fatalf("full apps = %v", full.Apps)
	}
	if len(full.Users()) <= len(direct.Users()) {
		t.Errorf("lineage audit found %v, direct %v", full.Users(), direct.Users())
	}
	foundAlice := false
	for _, g := range full.Grants {
		if g.UserName == "alice" && g.Via == "lineage" || g.UserName == "alice" && g.Via == "owner" {
			foundAlice = true
		}
	}
	if !foundAlice {
		t.Errorf("alice missing from full audit: %+v", full.Grants)
	}
}

func TestOwnerGrant(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	rep, err := svc.WhoCanAccess(item("pb_frontend/pbdb/clients/client_info/client_information_id"), false)
	if err != nil {
		t.Fatal(err)
	}
	hasOwner := false
	for _, g := range rep.Grants {
		if g.Via == "owner" && g.UserName == "alice" {
			hasOwner = true
		}
	}
	if !hasOwner {
		t.Errorf("owner grant missing: %+v", rep.Grants)
	}
}

func TestApplicationItself(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	rep, err := svc.WhoCanAccess(item("application1"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 1 {
		t.Fatalf("apps = %v", rep.Apps)
	}
}

func TestUnknownItem(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	if _, err := svc.WhoCanAccess(rdf.IRI("http://nowhere/x"), false); err == nil {
		t.Error("unknown item should error")
	}
	if _, err := New(store.New(), "missing").WhoCanAccess(rdf.IRI("http://x"), false); err == nil {
		t.Error("missing model should error")
	}
}

func TestGrantsSorted(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	rep, err := svc.WhoCanAccess(item("application1/dwhdb/mart/v_customer/customer_id"), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Grants); i++ {
		if rep.Grants[i-1].UserName > rep.Grants[i].UserName {
			t.Fatal("grants not sorted by user")
		}
	}
}

func TestFormat(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	rep, err := svc.WhoCanAccess(item("application1/dwhdb/mart/v_customer/customer_id"), true)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(rep)
	if !strings.Contains(out, "access audit for customer_id") || !strings.Contains(out, "carol") {
		t.Errorf("output:\n%s", out)
	}
}

func TestLandscapeScaleAudit(t *testing.T) {
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	svc := New(st, "m")
	rep, err := svc.WhoCanAccess(item(l.MartColumns[0]), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) < 2 {
		t.Errorf("expected at least dwh + source app, got %v", rep.Apps)
	}
}

// rolesByDescendants is the enumeration grantsForApp used before rolesOf:
// every partOf descendant of the application, kept when typed dm:Role.
// It stays here as the oracle for the selective probe.
func rolesByDescendants(view *store.View, dict *store.Dict, partOfID, app store.ID) []store.ID {
	typeID, _ := dict.Lookup(rdf.Type)
	roleClass, haveRoleClass := dict.Lookup(rdf.IRI(rdf.DMNS + "Role"))
	var roles []store.ID
	for _, role := range view.Subjects(partOfID, app) {
		if haveRoleClass && !view.Contains(store.ETriple{S: role, P: typeID, O: roleClass}) {
			continue
		}
		roles = append(roles, role)
	}
	return roles
}

// TestRoleProbeMatchesDescendantEnumeration audits every mart column of
// a generated landscape (lineage included, so the warehouse application
// and the source applications all come up) and requires the role grants
// of each report to be exactly those the old enumeration yields for the
// report's applications.
func TestRoleProbeMatchesDescendantEnumeration(t *testing.T) {
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	svc := New(st, "m")
	view, err := reason.View(st, true, "m")
	if err != nil {
		t.Fatal(err)
	}
	dict := st.Dict()
	partOfID, _ := dict.Lookup(rdf.IRI(rdf.MDWPartOf))
	hasRoleID, _ := dict.Lookup(rdf.IRI(rdf.MDWHasRole))

	type key struct{ user, role, app rdf.Term }
	roleGrants := 0
	for _, col := range l.MartColumns {
		rep, err := svc.WhoCanAccess(item(col), true)
		if err != nil {
			t.Fatal(err)
		}
		want := map[key]int{}
		for _, app := range rep.Apps {
			appID, _ := dict.Lookup(app)
			for _, role := range rolesByDescendants(view, dict, partOfID, appID) {
				for _, user := range view.Subjects(hasRoleID, role) {
					want[key{dict.Term(user), dict.Term(role), app}]++
				}
			}
		}
		got := map[key]int{}
		for _, g := range rep.Grants {
			if g.Via != "owner" {
				got[key{g.User, g.Role, g.App}]++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d role grants, old enumeration finds %d", col, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("%s: grant %v reported %d times, old enumeration %d", col, k, got[k], n)
			}
		}
		roleGrants += len(got)
	}
	if roleGrants == 0 {
		t.Fatal("no role grant in any report: the comparison checked nothing")
	}
}
