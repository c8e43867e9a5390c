// Package landscape generates a synthetic IT landscape shaped like the
// one Section II of the paper describes: source applications with
// databases, schemas, tables, and columns; a layered data warehouse
// (inbound interface, integration area, data marts — Figure 2);
// interfaces and mapping chains between them (the data flows of
// Figure 1); users with business and IT roles; and business concepts
// implemented by technical items.
//
// Credit Suisse's real meta-data is proprietary, so this generator is the
// substitution: it is deterministic (seeded), parameterized, and
// calibrated so the paper-scale configuration lands near the published
// graph size of ~130,000 nodes and on the order of a million edges per
// version (Section III.A).
package landscape

import (
	"fmt"
	"math/rand"
	"strings"

	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/staging"
)

// Config parameterizes the generator.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// SourceApps is the number of applications feeding the warehouse.
	SourceApps int
	// SchemasPerApp, TablesPerSchema, ColumnsPerTable shape each source
	// application's database.
	SchemasPerApp   int
	TablesPerSchema int
	ColumnsPerTable int
	// MappedFraction is the fraction of source columns that flow into the
	// warehouse through a mapping chain.
	MappedFraction float64
	// Stages is the number of mapping hops per data flow (Figure 2 uses
	// 3: source→inbound, inbound→integration, integration→mart).
	Stages int
	// Users and RolesPerApp populate the roles subject area.
	Users       int
	RolesPerApp int
	// Reports is the number of business reports consuming mart columns.
	Reports int
	// CrypticFraction is the share of columns with legacy names like
	// "TCD100_COL7" (the paper calls these out explicitly).
	CrypticFraction float64
	// RelatedPerApp adds that many symmetric dm:isRelatedTo edges per
	// application to densify the graph.
	RelatedPerApp int
}

// ScaleConfig returns the configuration a -scale flag names.
func ScaleConfig(scale string) (Config, error) {
	switch scale {
	case "small":
		return Small(), nil
	case "paper":
		return PaperScale(), nil
	default:
		return Config{}, fmt.Errorf("unknown scale %q (want small or paper)", scale)
	}
}

// Small returns a compact configuration for tests and examples.
func Small() Config {
	return Config{
		Seed:            1,
		SourceApps:      4,
		SchemasPerApp:   1,
		TablesPerSchema: 3,
		ColumnsPerTable: 5,
		MappedFraction:  0.5,
		Stages:          3,
		Users:           6,
		RolesPerApp:     2,
		Reports:         4,
		CrypticFraction: 0.2,
		RelatedPerApp:   2,
	}
}

// PaperScale returns the configuration calibrated to the graph size the
// paper reports for one version of the warehouse (~130k nodes). Run
// `mdw report scale` or BenchmarkFigure4Pipeline for the measured counts.
func PaperScale() Config {
	return Config{
		Seed:            2009, // the year the warehouse went productive
		SourceApps:      72,
		SchemasPerApp:   2,
		TablesPerSchema: 10,
		ColumnsPerTable: 12,
		MappedFraction:  0.5,
		Stages:          3,
		Users:           500,
		RolesPerApp:     4,
		Reports:         500,
		CrypticFraction: 0.3,
		RelatedPerApp:   1200,
	}
}

// Landscape is one generated IT landscape.
type Landscape struct {
	Config Config
	// Exports are the per-subject-area XML meta-data documents that feed
	// the Figure 4 pipeline.
	Exports []*staging.Export
	// Ontology is the hierarchy (DWH base plus per-application classes).
	Ontology *ontology.Ontology
	// Chains records every generated mapping chain as the list of column
	// instance paths from source to mart; benches and tests use it as
	// ground truth for lineage.
	Chains [][]string
	// MartColumns lists the mart-level column paths, the typical lineage
	// targets.
	MartColumns []string

	extra []rdf.Triple
}

// businessTerms are the vocabulary from which column and concept names
// are drawn; "customer" and friends mirror the paper's running examples.
var businessTerms = []string{
	"customer", "client", "partner", "account", "transaction", "payment",
	"balance", "portfolio", "position", "instrument", "trade", "order",
	"address", "branch", "currency", "amount", "limit", "risk", "rating",
	"contract", "product", "fee", "interest", "loan", "deposit",
	"security", "counterparty", "settlement", "collateral", "margin",
}

var suffixes = []string{"_id", "_name", "_type", "_code", "_date", "_amt", "_status", "_flag"}

var domains = []string{"payments", "accounts", "trading", "risk", "crm", "compliance", "treasury", "custody"}

// technologies is the physical-level meta-data pool (Section II: the
// "programming languages and third-party software used to assemble
// applications" that the warehouse also tracks).
var technologies = []staging.TechnologyDoc{
	{Name: "cobol", Version: "85", Kind: "language"},
	{Name: "pl1", Version: "v2", Kind: "language"},
	{Name: "java", Version: "6", Kind: "language"},
	{Name: "plsql", Version: "10g", Kind: "language"},
	{Name: "oracle", Version: "10g", Kind: "product"},
	{Name: "db2", Version: "9", Kind: "product"},
	{Name: "mq_series", Version: "7", Kind: "product"},
	{Name: "informatica", Version: "8", Kind: "product"},
}

var ruleConds = []string{
	"country = 'CH'", "amount > 0", "status = 'ACTIVE'", "currency = 'USD'",
	"segment = 'PB'", "valid_to IS NULL", "type IN ('P','O')", "",
}

// DWHApp is the application name of the generated data warehouse.
const DWHApp = "dwh"

// Generate builds a deterministic landscape from cfg.
func Generate(cfg Config) *Landscape {
	rng := rand.New(rand.NewSource(cfg.Seed))
	l := &Landscape{Config: cfg, Ontology: ontology.DWH()}

	apps := &staging.Export{Source: "application-catalog"}
	flows := &staging.Export{Source: "data-flows"}
	people := &staging.Export{Source: "identity-management"}
	concepts := &staging.Export{Source: "business-glossary"}

	// The warehouse application with its three areas (Figure 2).
	dwh := staging.ApplicationDoc{
		Name:  DWHApp,
		Owner: "user0",
		Area:  "Integration_Area",
		Databases: []staging.DatabaseDoc{{
			Name: "dwhdb",
			Schemas: []staging.SchemaDoc{
				{Name: "inbound", Layer: "physical"},
				{Name: "integration", Layer: "physical"},
				{Name: "mart", Layer: "conceptual"},
			},
		}},
	}
	inbound := &dwh.Databases[0].Schemas[0]
	integration := &dwh.Databases[0].Schemas[1]
	mart := &dwh.Databases[0].Schemas[2]

	// Per-application item classes, mirroring Application1_Item etc.
	appClass := func(app, base string) string {
		local := classLocal(app, base)
		full := rdf.DMNS + local
		if l.Ontology.Class(full) == nil {
			l.Ontology.AddClass(full, classLabel(app, base), rdf.DMNS+base, rdf.DMNS+appItemLocal(app))
		}
		return local
	}
	ensureAppItem := func(app string) {
		full := rdf.DMNS + appItemLocal(app)
		if l.Ontology.Class(full) == nil {
			l.Ontology.AddClass(full, classLabel(app, "Item"), rdf.DMNS+"Application_Item")
		}
	}
	ensureAppItem(DWHApp)
	// DWH view columns are also interface items, like
	// Application1_View_Column in Figure 3.
	l.Ontology.AddClass(rdf.DMNS+classLocal(DWHApp, "View_Column"),
		classLabel(DWHApp, "View_Column"),
		rdf.DMNS+"View_Column", rdf.DMNS+appItemLocal(DWHApp), rdf.DMNS+"Interface_Item")
	l.Ontology.AddClass(rdf.DMNS+classLocal(DWHApp, "Table_Column"),
		classLabel(DWHApp, "Table_Column"),
		rdf.DMNS+"Table_Column", rdf.DMNS+appItemLocal(DWHApp))

	colName := func(rng *rand.Rand, appIdx, tblIdx, colIdx int) string {
		if rng.Float64() < cfg.CrypticFraction {
			return fmt.Sprintf("tcd%d%02d_col%d", appIdx, tblIdx, colIdx)
		}
		term := businessTerms[rng.Intn(len(businessTerms))]
		return term + suffixes[rng.Intn(len(suffixes))]
	}

	usedTerms := map[string]bool{}
	chainSeq := 0
	for a := 0; a < cfg.SourceApps; a++ {
		domain := domains[a%len(domains)]
		appName := fmt.Sprintf("app%d_%s", a, domain)
		ensureAppItem(appName)
		tblClass := appClass(appName, "Table_Column")
		app := staging.ApplicationDoc{
			Name:    appName,
			Owner:   fmt.Sprintf("user%d", a%max(cfg.Users, 1)),
			Area:    domain,
			LogFile: fmt.Sprintf("%s.log", appName),
			Databases: []staging.DatabaseDoc{{
				Name: "db0",
			}},
		}
		// Each application is assembled from one language and one product.
		app.Technologies = append(app.Technologies,
			technologies[rng.Intn(4)], technologies[4+rng.Intn(4)])
		for s := 0; s < cfg.SchemasPerApp; s++ {
			sc := staging.SchemaDoc{Name: fmt.Sprintf("schema%d", s), Layer: "physical"}
			for tbl := 0; tbl < cfg.TablesPerSchema; tbl++ {
				t := staging.TableDoc{Name: fmt.Sprintf("t%d_%d", s, tbl)}
				for c := 0; c < cfg.ColumnsPerTable; c++ {
					name := colName(rng, a, tbl, c)
					for _, term := range businessTerms {
						if len(name) >= len(term) && name[:len(term)] == term {
							usedTerms[term] = true
						}
					}
					t.Columns = append(t.Columns, mkColumn(rng, name, tblClass))
					// Route a fraction of columns through the warehouse.
					if rng.Float64() < cfg.MappedFraction {
						chainSeq++
						l.addChain(cfg, rng, flows, inbound, integration, mart,
							appName, sc.Name, t.Name, name, chainSeq)
					}
				}
				sc.Tables = append(sc.Tables, t)
			}
			app.Databases[0].Schemas = append(app.Databases[0].Schemas, sc)
		}
		apps.Applications = append(apps.Applications, app)

		// One interface from each source application into the warehouse.
		flows.Interfaces = append(flows.Interfaces, staging.InterfaceDoc{
			Name: fmt.Sprintf("itf_%s_to_dwh", appName),
			From: appName,
			To:   DWHApp,
		})
	}
	apps.Applications = append(apps.Applications, dwh)

	// Users and role assignments.
	allApps := make([]string, 0, len(apps.Applications))
	for _, a := range apps.Applications {
		allApps = append(allApps, a.Name)
	}
	roleNames := []string{"business_owner", "business_user", "administrator", "support", "consultant", "accountant"}
	for u := 0; u < cfg.Users; u++ {
		user := staging.UserDoc{Name: fmt.Sprintf("user%d", u)}
		for r := 0; r < cfg.RolesPerApp; r++ {
			user.Roles = append(user.Roles, staging.RoleDoc{
				Name: roleNames[rng.Intn(len(roleNames))],
				App:  allApps[rng.Intn(len(allApps))],
			})
		}
		people.Users = append(people.Users, user)
	}

	// Reports consume mart view columns.
	for r := 0; r < cfg.Reports && len(l.MartColumns) > 0; r++ {
		rep := staging.ConceptDoc{
			Name:  fmt.Sprintf("report%d_%s", r, businessTerms[rng.Intn(len(businessTerms))]),
			Class: "Report",
		}
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			rep.Implements = append(rep.Implements, l.MartColumns[rng.Intn(len(l.MartColumns))])
		}
		concepts.Concepts = append(concepts.Concepts, rep)
	}

	// Business concepts for each term that actually occurs.
	for _, term := range businessTerms {
		if !usedTerms[term] {
			continue
		}
		cls := "Entity"
		switch term {
		case "customer":
			cls = "Customer"
		case "client":
			cls = "Client"
		case "partner":
			cls = "Partner"
		case "account":
			cls = "Account"
		case "transaction", "payment", "trade":
			cls = "Transaction"
		}
		doc := staging.ConceptDoc{Name: term, Class: cls}
		for i, mc := range l.MartColumns {
			if i%7 == 0 && containsTerm(mc, term) {
				doc.Implements = append(doc.Implements, mc)
			}
		}
		concepts.Concepts = append(concepts.Concepts, doc)
	}

	l.Exports = []*staging.Export{apps, flows, people, concepts}
	l.relatedEdges(rng, apps)
	return l
}

// addChain extends the warehouse schemas with one mapping chain for the
// given source column and records the mappings in the flows export.
func (l *Landscape) addChain(cfg Config, rng *rand.Rand, flows *staging.Export,
	inbound, integration, mart *staging.SchemaDoc,
	app, schema, table, column string, seq int) {

	sourcePath := fmt.Sprintf("%s/db0/%s/%s/%s", app, schema, table, column)
	chain := []string{sourcePath}

	// Inbound: one source file per source application (created lazily),
	// one field per chain.
	fileName := "in_" + app
	fi := findOrAddFile(inbound, fileName)
	inCol := fmt.Sprintf("%s_%d", column, seq)
	inbound.Files[fi].Columns = append(inbound.Files[fi].Columns,
		mkColumn(rng, inCol, "Source_File_Column"))
	inPath := fmt.Sprintf("%s/dwhdb/inbound/%s/%s", DWHApp, fileName, inCol)
	chain = append(chain, inPath)

	// Intermediate integration hops (Stages-2 of them) and the final mart
	// view column.
	prev := inPath
	for s := 2; s < cfg.Stages; s++ {
		tblName := fmt.Sprintf("int_t%d", seq%97)
		ti := findOrAddTable(integration, tblName)
		col := fmt.Sprintf("%s_i%d", column, seq)
		integration.Tables[ti].Columns = append(integration.Tables[ti].Columns,
			mkColumn(rng, col, classLocal(DWHApp, "Table_Column")))
		path := fmt.Sprintf("%s/dwhdb/integration/%s/%s", DWHApp, tblName, col)
		flows.Mappings = append(flows.Mappings, staging.MappingDoc{
			From: prev, To: path, Rule: ruleConds[rng.Intn(len(ruleConds))],
		})
		chain = append(chain, path)
		prev = path
	}
	viewName := fmt.Sprintf("v_mart%d", seq%53)
	vi := findOrAddView(mart, viewName)
	martCol := fmt.Sprintf("%s_m%d", column, seq)
	mart.Views[vi].Columns = append(mart.Views[vi].Columns,
		mkColumn(rng, martCol, classLocal(DWHApp, "View_Column")))
	martPath := fmt.Sprintf("%s/dwhdb/mart/%s/%s", DWHApp, viewName, martCol)
	flows.Mappings = append(flows.Mappings, staging.MappingDoc{
		From: prev, To: martPath, Rule: ruleConds[rng.Intn(len(ruleConds))],
	})
	chain = append(chain, martPath)

	// The hop from the source application into the inbound area.
	flows.Mappings = append(flows.Mappings, staging.MappingDoc{
		From: sourcePath, To: inPath, Rule: "",
	})

	l.Chains = append(l.Chains, chain)
	l.MartColumns = append(l.MartColumns, martPath)
}

// relatedEdges appends symmetric isRelatedTo facts as an extra export to
// densify the graph (the warehouse's DBpedia-style auxiliary edges).
func (l *Landscape) relatedEdges(rng *rand.Rand, apps *staging.Export) {
	if l.Config.RelatedPerApp == 0 || len(l.MartColumns) < 2 {
		return
	}
	var ts []rdf.Triple
	for range apps.Applications {
		for i := 0; i < l.Config.RelatedPerApp; i++ {
			a := l.MartColumns[rng.Intn(len(l.MartColumns))]
			b := l.MartColumns[rng.Intn(len(l.MartColumns))]
			if a == b {
				continue
			}
			ts = append(ts, rdf.T(pathIRI(a), rdf.IRI(rdf.MDWIsRelatedTo), pathIRI(b)))
		}
	}
	l.extra = ts
}

// ExtraTriples returns generated triples that bypass the XML exports
// (auxiliary relatedness edges).
func (l *Landscape) ExtraTriples() []rdf.Triple { return l.extra }

func pathIRI(path string) rdf.Term {
	return staging.InstanceIRI(splitPath(path)...)
}

func splitPath(p string) []string {
	var out []string
	start := 0
	for i := 0; i < len(p); i++ {
		if p[i] == '/' {
			out = append(out, p[start:i])
			start = i + 1
		}
	}
	return append(out, p[start:])
}

func containsTerm(path, term string) bool {
	for i := 0; i+len(term) <= len(path); i++ {
		if path[i:i+len(term)] == term {
			return true
		}
	}
	return false
}

// mkColumn builds a fully documented column: data type, width, and a
// free-text description mentioning a business term (search also matches
// descriptions, which is how cryptic legacy names like TCD100 stay
// findable).
func mkColumn(rng *rand.Rand, name, class string) staging.ColumnDoc {
	term := businessTerms[rng.Intn(len(businessTerms))]
	other := businessTerms[rng.Intn(len(businessTerms))]
	col := staging.ColumnDoc{
		Name:     name,
		Class:    class,
		DataType: []string{"VARCHAR", "INTEGER", "DATE", "DECIMAL"}[rng.Intn(4)],
		Length:   1 + rng.Intn(64),
		// Descriptions come from a bounded phrase pool so the value
		// nodes are shared, as reference texts in a real glossary are.
		Description: fmt.Sprintf("%s attribute used in %s processing", other, term),
	}
	// Governance tags: person-identifying columns are tagged "pii",
	// monetary ones "confidential" (the instance-to-value tag facts).
	switch {
	case strings.HasPrefix(name, "customer") || strings.HasPrefix(name, "client") ||
		strings.HasPrefix(name, "partner") || strings.HasPrefix(name, "address"):
		col.Tags = append(col.Tags, "pii")
	case strings.HasPrefix(name, "amount") || strings.HasPrefix(name, "balance") ||
		strings.HasPrefix(name, "limit"):
		col.Tags = append(col.Tags, "confidential")
	}
	return col
}

func findOrAddFile(sc *staging.SchemaDoc, name string) int {
	for i := range sc.Files {
		if sc.Files[i].Name == name {
			return i
		}
	}
	sc.Files = append(sc.Files, staging.TableDoc{Name: name})
	return len(sc.Files) - 1
}

func findOrAddTable(sc *staging.SchemaDoc, name string) int {
	for i := range sc.Tables {
		if sc.Tables[i].Name == name {
			return i
		}
	}
	sc.Tables = append(sc.Tables, staging.TableDoc{Name: name})
	return len(sc.Tables) - 1
}

func findOrAddView(sc *staging.SchemaDoc, name string) int {
	for i := range sc.Views {
		if sc.Views[i].Name == name {
			return i
		}
	}
	sc.Views = append(sc.Views, staging.TableDoc{Name: name})
	return len(sc.Views) - 1
}

func classLocal(app, base string) string {
	return exportCase(app) + "_" + base
}

func appItemLocal(app string) string {
	return exportCase(app) + "_Item"
}

func classLabel(app, base string) string {
	lbl := exportCase(app) + " " + base
	out := make([]byte, 0, len(lbl))
	for i := 0; i < len(lbl); i++ {
		if lbl[i] == '_' {
			out = append(out, ' ')
		} else {
			out = append(out, lbl[i])
		}
	}
	return string(out)
}

// exportCase turns "app3_payments" into "App3_payments" so generated
// class local names look like the paper's Application1_View_Column.
func exportCase(app string) string {
	if app == "" {
		return app
	}
	b := []byte(app)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}
