// Package audit implements the roles use case of Section II combined
// with lineage: "an auditor may want to know which applications (and
// correspondingly which roles and users) have access to a particular
// information item (e.g., the balance of a bank account of a user from
// the USA)".
//
// Access is modeled through the role subject area: an item belongs to an
// application (via the dm:partOf containment closure), roles are tied to
// applications, and users hold roles. Because data flows copy
// information between applications, the full audit also walks the
// item's lineage and reports access along every upstream and downstream
// application — the combination the paper motivates lineage with.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"mdw/internal/lineage"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/store"
)

// Grant is one (user, role, application) access relationship.
type Grant struct {
	User     rdf.Term
	UserName string
	Role     rdf.Term
	RoleName string
	// RoleClass is the dm: role class (Business_Owner, Administrator, …).
	RoleClass string
	// App is the application through which access is granted.
	App     rdf.Term
	AppName string
	// Via explains the grant: "direct" for the item's own application,
	// "owner" for the application owner, or "lineage" for access through
	// an up-/downstream application of the item's data flow.
	Via string
}

// Report is the outcome of an access audit for one item.
type Report struct {
	Item rdf.Term
	// Apps lists the applications touching the item's data: its own
	// application first, then lineage applications.
	Apps []rdf.Term
	// Grants lists every access relationship found, sorted by user.
	Grants []Grant
}

// Users returns the distinct user names with any access.
func (r *Report) Users() []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range r.Grants {
		if !seen[g.UserName] {
			seen[g.UserName] = true
			out = append(out, g.UserName)
		}
	}
	sort.Strings(out)
	return out
}

// Service answers access audits over one model.
type Service struct {
	st    *store.Store
	model string
}

// New returns an audit service for the named model of st.
func New(st *store.Store, model string) *Service {
	return &Service{st: st, model: model}
}

// WhoCanAccess reports every user/role with access to the item through
// its own application. Set includeLineage to extend the audit across the
// item's data flows (both directions), which is what an actual
// data-protection review needs.
func (s *Service) WhoCanAccess(item rdf.Term, includeLineage bool) (*Report, error) {
	view, err := reason.IndexedView(s.st, s.model)
	if err != nil {
		return nil, err
	}
	dict := s.st.Dict()
	itemID, ok := dict.Lookup(item)
	if !ok {
		return nil, fmt.Errorf("audit: %w %s", lineage.ErrUnknownItem, item)
	}

	rep := &Report{Item: item}
	seenApp := map[store.ID]bool{}
	addApp := func(app store.ID, via string) {
		if seenApp[app] {
			return
		}
		seenApp[app] = true
		rep.Apps = append(rep.Apps, dict.Term(app))
		rep.Grants = append(rep.Grants, s.grantsForApp(view, dict, app, via)...)
	}

	if app, ok := s.applicationOf(view, dict, itemID); ok {
		addApp(app, "direct")
	}
	if includeLineage {
		svc := lineage.New(s.st, s.model)
		for _, dir := range []lineage.Direction{lineage.Backward, lineage.Forward} {
			g, err := svc.Trace(item, dir, lineage.Options{})
			if err != nil {
				return nil, err
			}
			for term := range g.Nodes {
				if term == item {
					continue
				}
				id, ok := dict.Lookup(term)
				if !ok {
					continue
				}
				if app, ok := s.applicationOf(view, dict, id); ok {
					addApp(app, "lineage")
				}
			}
		}
	}
	sort.Slice(rep.Grants, func(i, j int) bool {
		if rep.Grants[i].UserName != rep.Grants[j].UserName {
			return rep.Grants[i].UserName < rep.Grants[j].UserName
		}
		if rep.Grants[i].RoleName != rep.Grants[j].RoleName {
			return rep.Grants[i].RoleName < rep.Grants[j].RoleName
		}
		return rep.Grants[i].AppName < rep.Grants[j].AppName
	})
	return rep, nil
}

// applicationOf resolves the application containing the node, via the
// transitive dm:partOf closure (materialized in the index) or directly
// when the node is itself an application.
func (s *Service) applicationOf(view *store.View, dict *store.Dict, id store.ID) (store.ID, bool) {
	typeID, ok := dict.Lookup(rdf.Type)
	if !ok {
		return 0, false
	}
	appClass, ok := dict.Lookup(rdf.IRI(rdf.DMNS + "Application"))
	if !ok {
		return 0, false
	}
	if view.Contains(store.ETriple{S: id, P: typeID, O: appClass}) {
		return id, true
	}
	partOfID, ok := dict.Lookup(rdf.IRI(rdf.MDWPartOf))
	if !ok {
		return 0, false
	}
	for _, anc := range view.Objects(id, partOfID) {
		if view.Contains(store.ETriple{S: anc, P: typeID, O: appClass}) {
			return anc, true
		}
	}
	return 0, false
}

// grantsForApp collects the users holding roles tied to the application,
// plus the application owner.
func (s *Service) grantsForApp(view *store.View, dict *store.Dict, app store.ID, via string) []Grant {
	var out []Grant
	appName := s.nameOf(view, dict, app)

	partOfID, _ := dict.Lookup(rdf.IRI(rdf.MDWPartOf))
	hasRoleID, _ := dict.Lookup(rdf.IRI(rdf.MDWHasRole))
	if partOfID != store.Wildcard && hasRoleID != store.Wildcard {
		for _, role := range rolesOf(view, dict, partOfID, app) {
			roleName := s.nameOf(view, dict, role)
			roleCls := s.roleClassOf(view, dict, role)
			for _, user := range view.Subjects(hasRoleID, role) {
				out = append(out, Grant{
					User: dict.Term(user), UserName: s.nameOf(view, dict, user),
					Role: dict.Term(role), RoleName: roleName, RoleClass: roleCls,
					App: dict.Term(app), AppName: appName, Via: via,
				})
			}
		}
	}
	if ownedByID, ok := dict.Lookup(rdf.IRI(rdf.MDWOwnedBy)); ok {
		for _, owner := range view.Objects(app, ownedByID) {
			out = append(out, Grant{
				User: dict.Term(owner), UserName: s.nameOf(view, dict, owner),
				RoleName: "business_owner", RoleClass: "Business_Owner",
				App: dict.Term(app), AppName: appName, Via: "owner",
			})
		}
	}
	return out
}

// rolesOf returns the roles tied to the application: the nodes typed
// dm:Role that sit partOf it. It starts from the roles, not from the
// application: under the materialized partOf closure an application has
// tens of thousands of descendants (26k for the paper-scale warehouse)
// against a few hundred roles in the whole landscape. A model without
// the Role class has nothing to select by, and every child counts.
func rolesOf(view *store.View, dict *store.Dict, partOfID, app store.ID) []store.ID {
	typeID, haveType := dict.Lookup(rdf.Type)
	roleClass, haveRoleClass := dict.Lookup(rdf.IRI(rdf.DMNS + "Role"))
	if !haveType || !haveRoleClass {
		return view.Subjects(partOfID, app)
	}
	var roles []store.ID
	for _, role := range view.Subjects(typeID, roleClass) {
		if view.Contains(store.ETriple{S: role, P: partOfID, O: app}) {
			roles = append(roles, role)
		}
	}
	return roles
}

// roleClassOf returns the most specific dm: role class local name.
func (s *Service) roleClassOf(view *store.View, dict *store.Dict, role store.ID) string {
	typeID, ok := dict.Lookup(rdf.Type)
	if !ok {
		return ""
	}
	best := ""
	for _, c := range view.Objects(role, typeID) {
		iri := dict.Term(c).Value
		if !strings.HasPrefix(iri, rdf.DMNS) {
			continue
		}
		local := rdf.LocalName(iri)
		switch local {
		case "Role", "Business_Role", "IT_Role", "Item":
			if best == "" {
				best = local
			}
		default:
			best = local
		}
	}
	return best
}

func (s *Service) nameOf(view *store.View, dict *store.Dict, id store.ID) string {
	if nameID, ok := dict.Lookup(rdf.HasName); ok {
		for _, v := range view.Objects(id, nameID) {
			return dict.Term(v).Value
		}
	}
	return rdf.LocalName(dict.Term(id).Value)
}

// Format renders the report for the terminal.
func Format(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "access audit for %s\n", rdf.LocalName(r.Item.Value))
	fmt.Fprintf(&b, "  applications touching the data: %d\n", len(r.Apps))
	for _, g := range r.Grants {
		fmt.Fprintf(&b, "  %-12s %-16s on %-16s (%s, via %s)\n",
			g.UserName, g.RoleName, g.AppName, g.RoleClass, g.Via)
	}
	if len(r.Grants) == 0 {
		b.WriteString("  no role assignments found\n")
	}
	return b.String()
}
