package durable_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"mdw/internal/durable"
	"mdw/internal/landscape"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/staging"
)

// benchDir lazily builds one durable data directory per landscape scale:
// full staging load + entailment through the WAL, then one checkpoint so
// both a snapshot and a WAL tail exist.
type benchEnv struct {
	dir     string
	cp      durable.CheckpointStats
	triples int
}

var (
	benchMu   sync.Mutex
	benchEnvs = map[string]*benchEnv{}
)

// TestMain removes the shared benchmark fixtures, which outlive any one
// benchmark and so cannot live in b.TempDir.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, env := range benchEnvs {
		os.RemoveAll(env.dir)
	}
	os.Exit(code)
}

func benchFixture(b *testing.B, scale string) *benchEnv {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if env, ok := benchEnvs[scale]; ok {
		return env
	}
	cfg := landscape.Small()
	if scale == "paper" {
		cfg = landscape.PaperScale()
	}
	dir, err := os.MkdirTemp("", "mdw-durable-bench-")
	if err != nil {
		b.Fatal(err)
	}
	mgr, st, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	l := landscape.Generate(cfg)
	if _, err := (staging.Pipeline{Store: st, Model: "DWH_CURR"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		b.Fatal(err)
	}
	st.AddAll("DWH_CURR", l.ExtraTriples())
	if _, err := reason.Materialize(st, "DWH_CURR"); err != nil {
		b.Fatal(err)
	}
	cp, err := mgr.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	// Leave a WAL tail on top of the snapshot so recovery exercises both
	// paths, as it would in production.
	for i := 0; i < 100; i++ {
		st.Add("DWH_CURR", rdf.T(
			staging.InstanceIRI("bench", fmt.Sprintf("tail%d", i)),
			rdf.IRI(rdf.MDWHasName),
			rdf.Literal(fmt.Sprintf("t%d", i))))
	}
	if err := mgr.Close(); err != nil {
		b.Fatal(err)
	}
	env := &benchEnv{dir: dir, cp: cp}
	for _, name := range st.ModelNames() {
		env.triples += st.Len(name)
	}
	benchEnvs[scale] = env
	return env
}

// BenchmarkWALAppend measures the commit-hook overhead of logging one
// three-triple add, the dominant durable cost on the write path.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	mgr, st, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Add("bench", rdf.T(
			staging.InstanceIRI("bench", fmt.Sprintf("s%d", i)),
			rdf.IRI(rdf.MDWHasName),
			rdf.Literal(fmt.Sprintf("v%d", i))))
	}
}

// BenchmarkCheckpoint measures the two kinds of checkpoint on the
// recovered fixture: "base" is what the first checkpoint and every
// compaction pay — capturing the whole store and writing it — and
// "delta" what a checkpoint after a 200-triple load pays.
func BenchmarkCheckpoint(b *testing.B) {
	for _, scale := range []string{"small", "paper"} {
		env := benchFixture(b, scale)
		b.Run(scale+"/base", func(b *testing.B) {
			st, _, err := durable.RecoverReadOnly(env.dir, nil)
			if err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			b.ResetTimer()
			var size int64
			for i := 0; i < b.N; i++ {
				states, terms := st.CaptureState(nil)
				if _, size, err = durable.WriteSnapshot(dir, uint64(i+1), states, terms); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "snapshot-bytes")
		})
		b.Run(scale+"/delta", func(b *testing.B) {
			dir := copyDir(b, env.dir)
			mgr, st, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNone})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			var cp durable.CheckpointStats
			n := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := make([]rdf.Triple, 200)
				for j := range batch {
					n++
					batch[j] = rdf.T(staging.InstanceIRI("bench", fmt.Sprintf("load%d", n)), rdf.IRI(rdf.MDWHasName), rdf.Literal(fmt.Sprintf("l%d", n)))
				}
				st.AddAll("DWH_CURR", batch)
				b.StartTimer()
				if cp, err = mgr.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cp.Bytes), "checkpoint-bytes")
			b.ReportMetric(float64(cp.Written), "triples-written")
		})
	}
}

func BenchmarkRecovery(b *testing.B) {
	for _, scale := range []string{"small", "paper"} {
		b.Run(scale, func(b *testing.B) {
			env := benchFixture(b, scale)
			b.ResetTimer()
			var triples int
			for i := 0; i < b.N; i++ {
				st, stats, err := durable.Recover(env.dir, nil)
				if err != nil {
					b.Fatal(err)
				}
				triples = stats.Triples
				_ = st
			}
			if triples != env.triples {
				b.Fatalf("recovered %d triples, fixture has %d", triples, env.triples)
			}
			b.ReportMetric(float64(triples), "triples")
		})
	}
}
