package staging

import (
	"fmt"
	"strings"

	"mdw/internal/rdf"
)

// InstanceIRI returns the instance-node IRI for a slash-separated
// meta-data path such as "app1/db1/schema1/table1/customer_id".
func InstanceIRI(path ...string) rdf.Term {
	cleaned := make([]string, len(path))
	for i, p := range path {
		cleaned[i] = Slug(p)
	}
	return rdf.IRI(rdf.InstNS + strings.Join(cleaned, "/"))
}

// Slug normalizes a name for use inside an IRI: lowercased with spaces
// replaced by underscores.
func Slug(name string) string {
	s := strings.ToLower(strings.TrimSpace(name))
	s = strings.ReplaceAll(s, " ", "_")
	s = strings.ReplaceAll(s, "#", "")
	s = strings.ReplaceAll(s, "<", "")
	s = strings.ReplaceAll(s, ">", "")
	return s
}

func dmClass(local string) rdf.Term { return rdf.IRI(rdf.DMNS + local) }

// Transform converts one XML export into RDF triples — the "transform to
// RDF" stage of Figure 4. Instance IRIs are derived from the containment
// path, every instance gets an rdf:type and a dm:hasName, containment is
// recorded with dm:partOf, and mappings produce both the direct
// dt:isMappedTo edge of Figure 3 and a reified dm:Mapping instance
// carrying the rule condition.
func Transform(e *Export) ([]rdf.Triple, error) {
	var out []rdf.Triple
	if err := transform(e, func(t rdf.Triple) { out = append(out, t) }); err != nil {
		return nil, err
	}
	return out, nil
}

// transform is Transform handing each triple to emit as it is made.
func transform(e *Export, emit func(rdf.Triple)) error {
	add := func(s, p, o rdf.Term) { emit(rdf.T(s, p, o)) }

	typed := func(node rdf.Term, class string, name string) {
		add(node, rdf.Type, dmClass(class))
		add(node, rdf.HasName, rdf.Literal(name))
	}

	for _, app := range e.Applications {
		appNode := InstanceIRI(app.Name)
		typed(appNode, "Application", app.Name)
		if app.Owner != "" {
			owner := InstanceIRI("users", app.Owner)
			add(appNode, rdf.IRI(rdf.MDWOwnedBy), owner)
		}
		if app.Area != "" {
			area := InstanceIRI("areas", app.Area)
			add(appNode, rdf.IRI(rdf.MDWInArea), area)
			typed(area, "Domain", app.Area)
		}
		for _, tech := range app.Technologies {
			tNode := InstanceIRI("tech", tech.Name)
			cls := "Software_Product"
			if Slug(tech.Kind) == "language" {
				cls = "Programming_Language"
			}
			typed(tNode, cls, tech.Name)
			add(appNode, rdf.IRI(rdf.MDWUsesTech), tNode)
			if tech.Version != "" {
				add(tNode, rdf.IRI(rdf.MDWVersionOfTech), rdf.Literal(tech.Version))
			}
		}
		if app.LogFile != "" {
			logNode := InstanceIRI(app.Name, "logs", app.LogFile)
			typed(logNode, "Log_File", app.LogFile)
			add(appNode, rdf.IRI(rdf.MDWHasLogFile), logNode)
			add(logNode, rdf.IRI(rdf.MDWPartOf), appNode)
		}
		for _, db := range app.Databases {
			dbNode := InstanceIRI(app.Name, db.Name)
			typed(dbNode, "Database", db.Name)
			add(appNode, rdf.IRI(rdf.MDWUsesDB), dbNode)
			add(dbNode, rdf.IRI(rdf.MDWPartOf), appNode)
			for _, sc := range db.Schemas {
				scNode := InstanceIRI(app.Name, db.Name, sc.Name)
				typed(scNode, "Schema", sc.Name)
				add(dbNode, rdf.IRI(rdf.MDWHasSchema), scNode)
				add(scNode, rdf.IRI(rdf.MDWPartOf), dbNode)
				if sc.Layer != "" {
					add(scNode, rdf.IRI(rdf.MDWInLayer), rdf.Literal(sc.Layer))
				}
				emitRelation := func(t TableDoc, containerClass, columnClass string) {
					tNode := InstanceIRI(app.Name, db.Name, sc.Name, t.Name)
					typed(tNode, containerClass, t.Name)
					add(scNode, rdf.IRI(rdf.MDWHasTable), tNode)
					add(tNode, rdf.IRI(rdf.MDWPartOf), scNode)
					for _, col := range t.Columns {
						cNode := InstanceIRI(app.Name, db.Name, sc.Name, t.Name, col.Name)
						cls := col.Class
						if cls == "" {
							cls = columnClass
						}
						typed(cNode, cls, col.Name)
						add(tNode, rdf.IRI(rdf.MDWHasColumn), cNode)
						add(cNode, rdf.IRI(rdf.MDWPartOf), tNode)
						if col.DataType != "" {
							add(cNode, rdf.IRI(rdf.MDWDataType), rdf.Literal(col.DataType))
						}
						if col.Length > 0 {
							add(cNode, rdf.IRI(rdf.MDWLength), rdf.Integer(int64(col.Length)))
						}
						if col.Description != "" {
							add(cNode, rdf.IRI(rdf.RDFSComment), rdf.Literal(col.Description))
						}
						for _, tag := range col.Tags {
							add(cNode, rdf.IRI(rdf.MDWTaggedWith), rdf.Literal(Slug(tag)))
						}
					}
				}
				for _, t := range sc.Tables {
					emitRelation(t, "Table", "Table_Column")
				}
				for _, v := range sc.Views {
					emitRelation(v, "View", "View_Column")
				}
				for _, f := range sc.Files {
					emitRelation(f, "Source_File", "Source_File_Column")
				}
			}
		}
	}

	for _, itf := range e.Interfaces {
		node := InstanceIRI("interfaces", itf.Name)
		typed(node, "Interface", itf.Name)
		if itf.From == "" || itf.To == "" {
			return fmt.Errorf("staging: interface %q missing from/to", itf.Name)
		}
		add(InstanceIRI(itf.From), rdf.IRI(rdf.MDWSourceOf), node)
		add(node, rdf.IRI(rdf.MDWConnectsTo), InstanceIRI(itf.To))
		add(InstanceIRI(itf.From), rdf.IRI(rdf.MDWFeeds), InstanceIRI(itf.To))
	}

	for i, m := range e.Mappings {
		if m.From == "" || m.To == "" {
			return fmt.Errorf("staging: mapping %d missing from/to", i)
		}
		from := InstanceIRI(strings.Split(m.From, "/")...)
		to := InstanceIRI(strings.Split(m.To, "/")...)
		add(from, rdf.IsMappedTo, to)
		name := m.Name
		if name == "" {
			name = fmt.Sprintf("mapping_%s_to_%s", rdf.LocalName(from.Value), rdf.LocalName(to.Value))
		}
		mNode := InstanceIRI("mappings", name)
		typed(mNode, "Mapping", name)
		add(mNode, rdf.IRI(rdf.MDWMapsFrom), from)
		add(mNode, rdf.IRI(rdf.MDWMapsTo), to)
		if m.Rule != "" {
			add(mNode, rdf.IRI(rdf.MDWRuleCond), rdf.Literal(m.Rule))
		}
	}

	for _, u := range e.Users {
		uNode := InstanceIRI("users", u.Name)
		typed(uNode, "User", u.Name)
		for _, r := range u.Roles {
			rNode := InstanceIRI("roles", r.Name, r.App)
			typed(rNode, roleClass(r.Name), r.Name)
			add(uNode, rdf.IRI(rdf.MDWHasRole), rNode)
			if r.App != "" {
				add(rNode, rdf.IRI(rdf.MDWPartOf), InstanceIRI(r.App))
			}
		}
	}

	for _, c := range e.Concepts {
		cls := c.Class
		if cls == "" {
			cls = "Business_Concept"
		}
		node := InstanceIRI("concepts", c.Name)
		typed(node, cls, c.Name)
		for _, impl := range c.Implements {
			add(InstanceIRI(strings.Split(impl, "/")...), rdf.IRI(rdf.MDWImplements), node)
		}
	}
	return nil
}

// roleClass maps well-known role names onto the role hierarchy; unknown
// roles land under the generic Role class.
func roleClass(name string) string {
	switch Slug(name) {
	case "business_owner":
		return "Business_Owner"
	case "business_user":
		return "Business_User"
	case "administrator":
		return "Administrator"
	case "support":
		return "Support"
	default:
		return "Role"
	}
}
