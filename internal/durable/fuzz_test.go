package durable_test

import (
	"os"
	"testing"

	"mdw/internal/durable"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/store"
)

// realWALPayloads produces genuine encoded record payloads by running
// mutations through a live manager and slicing the frames back out of
// the segment file.
func realWALPayloads(f *testing.F) [][]byte {
	f.Helper()
	dir := f.TempDir()
	mgr, st, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNone})
	if err != nil {
		f.Fatal(err)
	}
	st.Add("m", rdf.T(rdf.IRI("http://a"), rdf.IRI("http://p"), rdf.IRI("http://b")))
	st.AddAll("m", []rdf.Triple{
		rdf.T(rdf.Blank("bn"), rdf.IRI("http://p"), rdf.Literal("plain")),
		rdf.T(rdf.IRI("http://a"), rdf.IRI("http://p"), rdf.LangLiteral("hi", "en")),
		rdf.T(rdf.IRI("http://a"), rdf.IRI("http://q"), rdf.TypedLiteral("1", rdf.XSDInteger)),
	})
	st.Remove("m", rdf.T(rdf.IRI("http://a"), rdf.IRI("http://p"), rdf.IRI("http://b")))
	st.CloneModel("m", "m2")
	st.DropModel("m2")
	// An index installed whole, then an extension that adds and removes.
	st.AddAll("m", []rdf.Triple{
		rdf.T(rdf.IRI("http://Sub"), rdf.SubClassOf, rdf.IRI("http://Super")),
		rdf.T(rdf.IRI("http://a"), rdf.Type, rdf.IRI("http://Sub")),
	})
	if _, err := reason.Materialize(st, "m"); err != nil {
		f.Fatal(err)
	}
	st.AddAll("m", []rdf.Triple{
		rdf.T(rdf.IRI("http://b"), rdf.Type, rdf.IRI("http://Sub")),
		rdf.T(rdf.IRI("http://a"), rdf.Type, rdf.IRI("http://Super")),
	})
	if _, err := reason.Materialize(st, "m"); err != nil {
		f.Fatal(err)
	}
	mgr.Close()

	payloads := walPayloads(f, dir)
	if len(payloads) == 0 {
		f.Fatal("no frames extracted from the WAL segment")
	}
	return payloads
}

// FuzzWALRecord asserts DecodePayload never panics and never accepts a
// payload with trailing or structurally invalid bytes.
func FuzzWALRecord(f *testing.F) {
	for _, p := range realWALPayloads(f) {
		f.Add(p)
		// Seed common damage shapes too: truncation and bit flips.
		if len(p) > 2 {
			f.Add(p[:len(p)/2])
			bad := append([]byte(nil), p...)
			bad[len(bad)-1] ^= 0x80
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := durable.DecodePayload(data)
		if err != nil {
			return
		}
		if rec.LSN == 0 {
			t.Fatalf("accepted record with LSN 0 from % x", data)
		}
		if rec.Op.String() == "" {
			t.Fatalf("accepted record with unnamed op %d", rec.Op)
		}
	})
}

// FuzzSnapshot asserts DecodeSnapshot never panics, and that everything
// it accepts can be installed into a fresh store without a count
// mismatch — i.e. validation is strong enough that loading cannot fail
// on structural grounds.
func FuzzSnapshot(f *testing.F) {
	src := store.New()
	src.Add("m", rdf.T(rdf.IRI("http://a"), rdf.IRI("http://p"), rdf.IRI("http://b")))
	src.Add("m", rdf.T(rdf.IRI("http://a"), rdf.IRI("http://p"), rdf.Literal("x")))
	src.Add("n", rdf.T(rdf.Blank("b"), rdf.IRI("http://p"), rdf.LangLiteral("y", "de")))
	states, terms := src.CaptureState(nil)
	dir := f.TempDir()
	path, _, err := durable.WriteSnapshot(dir, 7, states, terms)
	if err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	bad := append([]byte(nil), real...)
	bad[len(bad)/3] ^= 0x01
	f.Add(bad)
	f.Add([]byte("MDWSNAP1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := durable.DecodeSnapshot(data)
		if err != nil {
			return
		}
		st := store.New()
		if err := durable.LoadSnapshot(st, snap); err != nil {
			t.Fatalf("validated snapshot failed to load: %v", err)
		}
		for _, ms := range snap.Models {
			if st.Len(ms.Name) != len(ms.Triples) {
				t.Fatalf("model %q: loaded %d triples, snapshot declared %d", ms.Name, st.Len(ms.Name), len(ms.Triples))
			}
		}
	})
}
