// Package bench is mdwbench: the end-to-end and per-layer benchmark of a
// paper-scale mdwd. It generates the fixed data set and the seeded
// request sequences, drives a live server over loopback HTTP in a closed
// loop, checks every response against ground truth from the generator,
// and replays the same requests down a ladder of in-process calls to
// attribute latency to the repository's packages. See README.md.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/ntriples"
	"mdw/internal/rdf"
	"mdw/internal/staging"
)

// Scale names a data set size. The benchmark proper runs at ScalePaper;
// ScaleSmall exists for the smoke test.
const (
	ScalePaper = "paper"
	ScaleSmall = "small"
)

func scaleConfig(scale string) (landscape.Config, error) {
	switch scale {
	case ScalePaper:
		return landscape.PaperScale(), nil
	case ScaleSmall:
		return landscape.Small(), nil
	}
	return landscape.Config{}, fmt.Errorf("unknown scale %q (want %s or %s)", scale, ScalePaper, ScaleSmall)
}

// growth is the per-release growth fraction of the release_cycle deltas:
// eight releases a year at 3% compound to the paper's 20-30% annual
// growth (Section III.A).
const growth = 0.03

// loadBatch is the number of triples per POST /api/load.
const loadBatch = 200

// Truth is what the generator knows about the data set: the request
// generators draw their keys from it and the oracle checks responses
// against it. It depends on the scale only, never on the request seed.
type Truth struct {
	Scale string
	// Chains[i] is a mapping chain, source column first, mart column
	// last; Marts[i] is its last element.
	Chains [][]string
	Marts  []string
	// SearchTerms is the search vocabulary in Zipf rank order. NoHit
	// marks the terms that match nothing.
	SearchTerms []string
	NoHit       map[string]bool
	// ListingTerms are the Listing 1 regex terms in Zipf rank order;
	// ListingClasses the Listing 2 target classes (dm: local names).
	ListingTerms   []string
	ListingClasses []string
	// AppClasses are the per-application Table_Column classes, Schemas
	// the source schema paths, Containers the warehouse-side tables,
	// files and views: the constants query_join binds.
	AppClasses []string
	Schemas    []string
	Containers []string
	// AuditChains indexes the chains whose audit reaches at least one
	// user (always all of them at paper scale).
	AuditChains []int
}

// Delta is one release's worth of new triples, as N-Triples lines.
type Delta struct {
	Release int
	Lines   []string
	// Probe is a column name created by this release.
	Probe string
}

// Batches splits the delta into loadBatch-sized N-Triples documents.
func (d *Delta) Batches() []string {
	var out []string
	for i := 0; i < len(d.Lines); i += loadBatch {
		j := min(i+loadBatch, len(d.Lines))
		out = append(out, strings.Join(d.Lines[i:j], "\n")+"\n")
	}
	return out
}

// IRI returns the instance IRI of a slash-separated item path.
func IRI(path string) string {
	return staging.InstanceIRI(strings.Split(path, "/")...).Value
}

// NewTruth generates the landscape of the given scale and derives the
// ground truth from it.
func NewTruth(scale string) (*Truth, *landscape.Landscape, error) {
	cfg, err := scaleConfig(scale)
	if err != nil {
		return nil, nil, err
	}
	l := landscape.Generate(cfg)
	if len(l.Chains) == 0 {
		return nil, nil, fmt.Errorf("scale %s: generator produced no mapping chains", scale)
	}
	t := &Truth{
		Scale:          scale,
		Chains:         l.Chains,
		Marts:          l.MartColumns,
		NoHit:          map[string]bool{},
		ListingClasses: []string{"Dwh_View_Column", "Dwh_Table_Column", "Source_File_Column", "Interface_Item"},
	}
	t.vocabulary()

	granted := map[string]bool{}
	containers := map[string]bool{}
	for _, e := range l.Exports {
		for _, u := range e.Users {
			for _, r := range u.Roles {
				granted[r.App] = true
			}
		}
		for _, a := range e.Applications {
			if a.Name == landscape.DWHApp {
				continue
			}
			t.AppClasses = append(t.AppClasses, strings.ToUpper(a.Name[:1])+a.Name[1:]+"_Table_Column")
			for _, db := range a.Databases {
				for _, sc := range db.Schemas {
					t.Schemas = append(t.Schemas, a.Name+"/"+db.Name+"/"+sc.Name)
				}
			}
		}
	}
	for i, c := range t.Chains {
		if granted[landscape.DWHApp] || granted[strings.SplitN(c[0], "/", 2)[0]] {
			t.AuditChains = append(t.AuditChains, i)
		}
		for _, p := range c[1:] {
			containers[p[:strings.LastIndexByte(p, '/')]] = true
		}
	}
	for c := range containers {
		t.Containers = append(t.Containers, c)
	}
	sort.Strings(t.Containers)
	if len(t.AuditChains) == 0 {
		return nil, nil, fmt.Errorf("scale %s: no chain is reachable by any user", scale)
	}
	return t, l, nil
}

// vocabulary derives the search and Listing 1 terms from the source
// column names of the mapping chains: business terms ("customer"), full
// column names ("customer_id"), unanchored substrings ("cust") and
// terms that match nothing, interleaved so that under Zipf(1.1) about
// 10% of the searches are substrings and about 5% find nothing.
func (t *Truth) vocabulary() {
	terms, names := map[string]int{}, map[string]int{}
	for _, c := range t.Chains {
		name := c[0][strings.LastIndexByte(c[0], '/')+1:]
		if strings.HasPrefix(name, "tcd") {
			continue // cryptic legacy names carry no business term
		}
		names[name]++
		terms[strings.SplitN(name, "_", 2)[0]]++
	}
	byFreq := func(m map[string]int, n int) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if m[keys[i]] != m[keys[j]] {
				return m[keys[i]] > m[keys[j]]
			}
			return keys[i] < keys[j]
		})
		return keys[:min(n, len(keys))]
	}
	topTerms, topNames := byFreq(terms, 30), byFreq(names, 24)
	t.ListingTerms = topTerms[:min(8, len(topTerms))]

	var hits []string
	for i := 0; i < len(topTerms) || i < len(topNames); i++ {
		if i < len(topTerms) {
			hits = append(hits, topTerms[i])
		}
		if i < len(topNames) {
			hits = append(hits, topNames[i])
		}
	}
	special := map[int]string{7: "zzyzx", 23: "qwxvk", 39: "nohit", 55: "xyzzyq"}
	for _, w := range special {
		t.NoHit[w] = true
	}
	for i, rank := range []int{2, 11, 19, 29, 43, 59} {
		if i < len(topTerms) && len(topTerms[i]) > 4 {
			special[rank] = topTerms[i][:4]
		}
	}
	for rank := 0; len(hits) > 0 && rank < 64; rank++ {
		if w, ok := special[rank]; ok {
			t.SearchTerms = append(t.SearchTerms, w)
			continue
		}
		t.SearchTerms = append(t.SearchTerms, hits[0])
		hits = hits[1:]
	}
}

// EnsureData writes the data set of the truth's scale under dir unless it
// is already there, and returns the directory mdwd's -data flag takes and
// the first n release deltas. The data set is a function of the scale
// alone, so one checkout generates it once and every run reuses it.
func EnsureData(dir string, t *Truth, l *landscape.Landscape, n int) (string, []Delta, error) {
	seed := filepath.Join(dir, "seed")
	if _, err := os.Stat(filepath.Join(seed, "complete")); err != nil {
		if err := writeSeed(seed, l); err != nil {
			return "", nil, err
		}
	}
	deltas, err := readDeltas(filepath.Join(dir, "deltas"), n)
	if err != nil {
		if deltas, err = writeDeltas(filepath.Join(dir, "deltas"), t.Scale, n); err != nil {
			return "", nil, err
		}
	}
	return seed, deltas, nil
}

// writeSeed writes the layout `mdw generate` writes: one XML export per
// subject area, the ontology, the auxiliary triples and the DBpedia
// extract. The "complete" marker goes last so that an interrupted write
// is redone.
func writeSeed(dir string, l *landscape.Landscape) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"ontology.ttl": l.Ontology.Turtle(),
		"dbpedia.nt":   ntriples.Marshal(dbpedia.Banking()),
	}
	for _, e := range l.Exports {
		doc, err := e.Encode()
		if err != nil {
			return err
		}
		files[staging.Slug(e.Source)+".xml"] = doc
	}
	if extra := l.ExtraTriples(); len(extra) > 0 {
		files["auxiliary.nt"] = ntriples.Marshal(extra)
	}
	for name, doc := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "complete"), nil, 0o644)
}

func deltaPath(dir string, release int) string {
	return filepath.Join(dir, fmt.Sprintf("release-%02d.nt", release))
}

// readDeltas loads the deltas of releases 2..n+1 from dir.
func readDeltas(dir string, n int) ([]Delta, error) {
	var out []Delta
	for r := 2; r < 2+n; r++ {
		data, err := os.ReadFile(deltaPath(dir, r))
		if err != nil {
			return nil, err
		}
		d := Delta{Release: r, Lines: strings.Split(strings.TrimSpace(string(data)), "\n")}
		suffix := fmt.Sprintf("_r%d\"", r)
		for _, line := range d.Lines {
			if strings.Contains(line, "#hasName> \"") && strings.Contains(line, suffix) {
				lit := line[strings.Index(line, "> \"")+3:]
				d.Probe = lit[:strings.IndexByte(lit, '"')]
				break
			}
		}
		if d.Probe == "" {
			return nil, fmt.Errorf("%s: no column created by release %d", deltaPath(dir, r), r)
		}
		out = append(out, d)
	}
	return out, nil
}

// writeDeltas evolves a fresh landscape release by release and writes,
// for each, the triples the release adds: the transform of the evolved
// exports minus everything earlier releases produced.
func writeDeltas(dir, scale string, n int) ([]Delta, error) {
	cfg, err := scaleConfig(scale)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := landscape.Generate(cfg)
	seen := map[rdf.Triple]bool{}
	fresh := func() ([]string, error) {
		var lines []string
		for _, e := range l.Exports {
			ts, err := staging.Transform(e)
			if err != nil {
				return nil, err
			}
			for _, tr := range ts {
				if !seen[tr] {
					seen[tr] = true
					lines = append(lines, tr.NTriple())
				}
			}
		}
		return lines, nil
	}
	if _, err := fresh(); err != nil {
		return nil, err
	}
	for r := 2; r < 2+n; r++ {
		if _, err := landscape.Evolve(l, r, growth); err != nil {
			return nil, err
		}
		lines, err := fresh()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(deltaPath(dir, r), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			return nil, err
		}
	}
	return readDeltas(dir, n)
}
