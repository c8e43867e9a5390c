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
	"mdw/internal/metamodel"
	"mdw/internal/rdf"
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
// data-protection review needs. The whole audit, lineage included, reads
// one view.
func (s *Service) WhoCanAccess(item rdf.Term, includeLineage bool) (*Report, error) {
	k, err := metamodel.Open(s.st, s.model)
	if err != nil {
		return nil, err
	}
	itemID, ok := k.Dict.Lookup(item)
	if !ok {
		return nil, fmt.Errorf("audit: %w %s", lineage.ErrUnknownItem, item)
	}

	rep := &Report{Item: item}
	seenApp := map[store.ID]bool{}
	// addApp adds the application the node belongs to — itself, or its
	// container along the dm:partOf closure — once.
	addApp := func(id store.ID, via string) {
		app, ok := k.ContainerOf(id, k.Application)
		if !ok || seenApp[app] {
			return
		}
		seenApp[app] = true
		rep.Apps = append(rep.Apps, k.Dict.Term(app))
		rep.Grants = append(rep.Grants, grantsForApp(k, app, via)...)
	}

	addApp(itemID, "direct")
	if includeLineage {
		for _, dir := range []lineage.Direction{lineage.Backward, lineage.Forward} {
			g, err := lineage.TraceOn(k, item, dir, lineage.Options{})
			if err != nil {
				return nil, err
			}
			for term := range g.Nodes {
				if id, ok := k.Dict.Lookup(term); ok && term != item {
					addApp(id, "lineage")
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

// grantsForApp collects the users holding roles tied to the application,
// plus the application owner.
func grantsForApp(k *metamodel.Graph, app store.ID, via string) []Grant {
	var out []Grant
	appName := k.Name(app)
	for _, role := range rolesOf(k, app) {
		roleName := k.Name(role)
		roleCls := roleClassOf(k, role)
		for _, user := range k.Subjects(k.HasRole, role) {
			out = append(out, Grant{
				User: k.Dict.Term(user), UserName: k.Name(user),
				Role: k.Dict.Term(role), RoleName: roleName, RoleClass: roleCls,
				App: k.Dict.Term(app), AppName: appName, Via: via,
			})
		}
	}
	for _, owner := range k.Objects(app, k.OwnedBy) {
		out = append(out, Grant{
			User: k.Dict.Term(owner), UserName: k.Name(owner),
			RoleName: "business_owner", RoleClass: "Business_Owner",
			App: k.Dict.Term(app), AppName: appName, Via: "owner",
		})
	}
	return out
}

// rolesOf returns the roles tied to the application: the nodes typed
// dm:Role that sit partOf it. It starts from the roles, not from the
// application: under the materialized partOf closure an application has
// tens of thousands of descendants (26k for the paper-scale warehouse)
// against a few hundred roles in the whole landscape. A model without
// the Role class has nothing to select by, and every child counts.
func rolesOf(k *metamodel.Graph, app store.ID) []store.ID {
	if k.Type == store.Wildcard || k.Role == store.Wildcard {
		return k.Subjects(k.PartOf, app)
	}
	var roles []store.ID
	for _, role := range k.Subjects(k.Type, k.Role) {
		if k.Has(role, k.PartOf, app) {
			roles = append(roles, role)
		}
	}
	return roles
}

// roleClassOf returns the most specific dm: role class local name. The
// classes are read in view order, asserted before inherited, so a role
// typed with a generic class only reports that one.
func roleClassOf(k *metamodel.Graph, role store.ID) string {
	best := ""
	for _, c := range k.Objects(role, k.Type) {
		iri := k.Dict.Term(c).Value
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
