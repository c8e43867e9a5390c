package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/ntriples"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/staging"
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
// OpenDurable whose directory held nothing yet.
func LoadDirInto(w *Warehouse, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var exports []*staging.Export
	var ontTriples []rdf.Triple
	var raw []rdf.Triple
	var dbp []rdf.Triple
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(ent.Name(), ".xml"):
			e, err := staging.Decode(string(data))
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			exports = append(exports, e)
		case strings.HasSuffix(ent.Name(), ".ttl"):
			ts, err := turtle.Unmarshal(string(data))
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			ontTriples = append(ontTriples, ts...)
		case ent.Name() == "dbpedia.nt":
			ts, err := ntriples.Unmarshal(string(data))
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			dbp = ts
		case strings.HasSuffix(ent.Name(), ".nt"):
			ts, err := ntriples.Unmarshal(string(data))
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			raw = append(raw, ts...)
		}
	}
	if len(ontTriples) > 0 {
		if _, err := w.LoadOntology(ontology.FromTriples("loaded", ontTriples)); err != nil {
			return err
		}
	}
	if len(exports) > 0 {
		if _, err := w.LoadExports(exports); err != nil {
			return err
		}
	}
	if len(raw) > 0 {
		w.LoadTriples(raw)
	}
	if len(dbp) > 0 {
		w.IntegrateDBpedia(dbp)
	}
	return nil
}
