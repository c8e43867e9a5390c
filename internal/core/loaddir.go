package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/ntriples"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/staging"
	"mdw/internal/store"
	"mdw/internal/turtle"
)

// Seed populates an empty warehouse from, in this precedence: a freshly
// generated landscape of the named scale ("small" or "paper"), a data
// directory (see LoadDirInto), or — with neither — the built-in Figure 3
// example, so every command works out of the box.
func Seed(w *Warehouse, dataDir, scale string) error {
	switch {
	case scale != "":
		cfg, err := landscape.ScaleConfig(scale)
		if err != nil {
			return err
		}
		l := landscape.Generate(cfg)
		if _, err := w.LoadOntology(l.Ontology); err != nil {
			return err
		}
		if _, err := w.LoadExports(l.Exports); err != nil {
			return err
		}
		w.LoadTriples(l.ExtraTriples())
	case dataDir != "":
		return LoadDirInto(w, dataDir)
	default:
		if _, err := w.LoadOntology(ontology.DWH()); err != nil {
			return err
		}
		if _, err := w.LoadExports([]*staging.Export{landscape.Figure3Export()}); err != nil {
			return err
		}
	}
	w.IntegrateDBpedia(dbpedia.Banking())
	return nil
}

// LoadDirInto loads a data directory in the layout written by `mdw
// generate` — *.xml meta-data exports, *.ttl ontology documents,
// dbpedia.nt synonym/homonym extract, and any other *.nt raw triples —
// into an existing warehouse, typically an empty one: a fresh New, or an
// OpenDurable whose directory held nothing yet. The whole directory is
// parsed before the first write, so a bad file anywhere loads nothing;
// files are read one at a time, and exports and raw triples are held as
// IDs, each export's document dropped once it is staged.
func LoadDirInto(w *Warehouse, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	facts := staging.NewTable(w.st)
	var ont, dbp []rdf.Triple
	var raw []store.ETriple
	stage := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		switch name := filepath.Base(path); {
		case strings.HasSuffix(name, ".xml"):
			e, err := staging.Decode(f)
			if err != nil {
				return err
			}
			return facts.InsertExport(e)
		case strings.HasSuffix(name, ".ttl"):
			doc, err := io.ReadAll(f)
			if err != nil {
				return err
			}
			ts, err := turtle.Unmarshal(string(doc))
			ont = append(ont, ts...)
			return err
		case name == "dbpedia.nt":
			return ntriples.Scan(f, func(t rdf.Triple) { dbp = append(dbp, t) })
		case strings.HasSuffix(name, ".nt"):
			return ntriples.Scan(f, func(t rdf.Triple) { raw = append(raw, w.st.Dict().Encode(t)) })
		}
		return nil
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		if err := stage(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(ont) > 0 {
		if _, err := w.LoadOntology(ontology.FromTriples("loaded", ont)); err != nil {
			return err
		}
	}
	if facts.Len() > 0 {
		if _, err := facts.BulkLoad(w.model, true); err != nil {
			return err
		}
		if _, err := w.TextIndex(); err != nil {
			return err
		}
	}
	if len(raw) > 0 {
		w.st.AddIDs(w.model, raw)
	}
	if len(dbp) > 0 {
		w.IntegrateDBpedia(dbp)
	}
	return nil
}
