// Package staging implements the load pipeline of Figure 4: source
// meta-data arrives as XML exports, is transformed into RDF triples,
// collected in staging tables, and bulk-loaded into the RDF model tables
// of the store. The ontology (hierarchy) export joins the facts in the
// same staging tables, connected through the meta-data schema — exactly
// the flow the paper describes in Section III.B.
package staging

import (
	"encoding/xml"
	"io"
)

// Export is one source meta-data XML document. Every subject area of
// Figure 1 (applications with their databases and data structures,
// interfaces, mappings/data flows, users and roles, business concepts)
// has a corresponding element.
type Export struct {
	XMLName      xml.Name         `xml:"metadata"`
	Source       string           `xml:"source,attr"`
	Applications []ApplicationDoc `xml:"application"`
	Interfaces   []InterfaceDoc   `xml:"interface"`
	Mappings     []MappingDoc     `xml:"mapping"`
	Users        []UserDoc        `xml:"user"`
	Concepts     []ConceptDoc     `xml:"concept"`
}

// ApplicationDoc describes one application and its database structures.
type ApplicationDoc struct {
	Name      string        `xml:"name,attr"`
	Owner     string        `xml:"owner,attr,omitempty"`
	Area      string        `xml:"area,attr,omitempty"` // DWH area or business domain
	Databases []DatabaseDoc `xml:"database"`
	// Technologies lists the physical-level meta-data of Section II /
	// Figure 9: the programming languages and third-party software the
	// application is assembled from.
	Technologies []TechnologyDoc `xml:"technology"`
	// LogFile optionally names the application's event log, which
	// auditors inspect (Section II).
	LogFile string `xml:"logfile,attr,omitempty"`
}

// TechnologyDoc is one language or product dependency of an application.
type TechnologyDoc struct {
	Name    string `xml:"name,attr"`
	Version string `xml:"version,attr,omitempty"`
	// Kind is "language" or "product".
	Kind string `xml:"kind,attr,omitempty"`
}

// DatabaseDoc describes one database of an application.
type DatabaseDoc struct {
	Name    string      `xml:"name,attr"`
	Schemas []SchemaDoc `xml:"schema"`
}

// SchemaDoc describes one database schema. Layer distinguishes the
// conceptual and physical abstraction levels users can filter on.
type SchemaDoc struct {
	Name   string     `xml:"name,attr"`
	Layer  string     `xml:"layer,attr,omitempty"`
	Tables []TableDoc `xml:"table"`
	Views  []TableDoc `xml:"view"`
	Files  []TableDoc `xml:"file"`
}

// TableDoc describes a table, view, or source file with its columns.
type TableDoc struct {
	Name    string      `xml:"name,attr"`
	Columns []ColumnDoc `xml:"column"`
}

// ColumnDoc describes one column (or file field). Class optionally names
// the meta-data schema class (local name in the dm: namespace) the column
// instance belongs to; when empty the transform picks the structural
// default (Table_Column, View_Column, or Source_File_Column).
type ColumnDoc struct {
	Name     string `xml:"name,attr"`
	DataType string `xml:"type,attr,omitempty"`
	Class    string `xml:"class,attr,omitempty"`
	// Length is the column width (0 means unspecified).
	Length int `xml:"length,attr,omitempty"`
	// Description is free-text documentation; search matches against it.
	Description string `xml:"description,attr,omitempty"`
	// Tags carries governance markers (e.g. "pii", "confidential") that
	// become the Credit Suisse-specific instance-to-value tag facts of
	// Section III.B.
	Tags []string `xml:"tag"`
}

// InterfaceDoc describes a physical interface between two applications.
type InterfaceDoc struct {
	Name string `xml:"name,attr"`
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
}

// MappingDoc describes one mapping of a data flow: From and To reference
// columns by their slash-separated path (app/db/schema/table/column).
// Rule optionally carries the transformation rule condition used by the
// filtered-lineage extension.
type MappingDoc struct {
	Name string `xml:"name,attr,omitempty"`
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
	Rule string `xml:"rule,attr,omitempty"`
}

// UserDoc describes a user with role assignments.
type UserDoc struct {
	Name  string    `xml:"name,attr"`
	Roles []RoleDoc `xml:"role"`
}

// RoleDoc assigns one role on one application to the enclosing user.
type RoleDoc struct {
	Name string `xml:"name,attr"`
	App  string `xml:"app,attr"`
}

// ConceptDoc links a business concept (e.g. Customer) to the technical
// items that implement it.
type ConceptDoc struct {
	Name       string   `xml:"name,attr"`
	Class      string   `xml:"class,attr,omitempty"`
	Implements []string `xml:"implements"`
}

// MarshalXML is provided by encoding/xml via the struct tags; Encode
// renders the export as an XML document string.
func (e *Export) Encode() (string, error) {
	b, err := xml.MarshalIndent(e, "", "  ")
	if err != nil {
		return "", err
	}
	return xml.Header + string(b) + "\n", nil
}

// Decode parses an XML export document from r.
func Decode(r io.Reader) (*Export, error) {
	var e Export
	if err := xml.NewDecoder(r).Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}
