package facts

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jthread"
)

func sample() *File {
	return &File{
		Module: "repro",
		Sections: []Section{
			{
				ID: "repro/pkg:b.go:9:2", Pkg: "repro/pkg", Func: "T.Put", Mode: "Sync",
				Class: ClassWriting, WrittenFields: []string{"T.val"}, JitKey: "T.put#0",
			},
			{
				ID: "repro/pkg:a.go:12:2", Pkg: "repro/pkg", Func: "T.Get", Mode: "Sync",
				Class: ClassElidable, RecoveryFree: true, MaxRetries: 1, JitKey: "T.get#0",
				ReadGuards:  map[string]string{"T.val": "T.mu", "T.gen": "T.mu"},
				WriteGuards: map[string]string{"T.hits": "T.mu"},
			},
			{
				ID: "repro/pkg:c.go:3:2", Pkg: "repro/pkg", Func: "T.Peek", Mode: "Sync",
				Class: ClassAnnotated, Annotated: true, MaxRetries: 2,
				Escapes: []string{"T.items", "T.view"},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Module != "repro" || len(got.Sections) != 3 {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	// Encode sorts by ID: a.go before b.go before c.go.
	if got.Sections[0].Func != "T.Get" || got.Sections[1].Func != "T.Put" {
		t.Fatalf("sections not sorted by ID: %v, %v", got.Sections[0].ID, got.Sections[1].ID)
	}
	s := got.ByJitKey()["T.get#0"]
	if s == nil || s.Class != ClassElidable || !s.RecoveryFree || s.MaxRetries != 1 {
		t.Fatalf("ByJitKey lost the elidable verdict: %+v", s)
	}
	// v2 guard maps survive the round trip intact.
	if s.ReadGuards["T.val"] != "T.mu" || s.ReadGuards["T.gen"] != "T.mu" || len(s.ReadGuards) != 2 {
		t.Fatalf("round trip lost read guards: %v", s.ReadGuards)
	}
	if s.WriteGuards["T.hits"] != "T.mu" || len(s.WriteGuards) != 1 {
		t.Fatalf("round trip lost write guards: %v", s.WriteGuards)
	}
	if got.ByID()["repro/pkg:c.go:3:2"].Class != ClassAnnotated {
		t.Fatal("ByID lost the annotated verdict")
	}
	// v3 escape summaries survive the round trip intact.
	if esc := got.ByID()["repro/pkg:c.go:3:2"].Escapes; len(esc) != 2 || esc[0] != "T.items" || esc[1] != "T.view" {
		t.Fatalf("round trip lost escapes: %v", esc)
	}
	// Determinism: a second encode of the decoded file is byte-identical.
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("Encode is not deterministic:\n%s\n---\n%s", data, again)
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := Decode([]byte(`{"schema":"bogus/v9"}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema decode: %v", err)
	}
	if _, err := Decode([]byte(`{"schema":"solero-facts/v3","sections":[{"id":"","class":"elidable"}]}`)); err == nil || !strings.Contains(err.Error(), "no id") {
		t.Fatalf("empty-id decode: %v", err)
	}
	if _, err := Decode([]byte(`{"schema":"solero-facts/v3","sections":[{"id":"x","class":"mystery"}]}`)); err == nil || !strings.Contains(err.Error(), "unknown class") {
		t.Fatalf("unknown-class decode: %v", err)
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("garbage decode succeeded")
	}
}

// TestDecodeRejectsOldSchemas pins that only v3 loads: a v1 document
// (no guard maps) or a v2 document (no escape summaries) would seed
// sections with proofs missing half their evidence, so Decode refuses
// both and names the schema to regenerate with.
func TestDecodeRejectsOldSchemas(t *testing.T) {
	for _, old := range []string{"solero-facts/v1", "solero-facts/v2"} {
		data := []byte(`{"schema":"` + old + `","module":"repro","sections":[` +
			`{"id":"repro/pkg:a.go:1:1","pkg":"repro/pkg","func":"F","mode":"ReadOnly","class":"elidable","maxRetries":1}]}` + "\n")
		f, err := Decode(data)
		if err == nil {
			t.Fatalf("%s decoded: %+v", old, f)
		}
		if !strings.Contains(err.Error(), Schema) {
			t.Fatalf("%s rejected without naming %s: %v", old, Schema, err)
		}
	}
}

// TestSeedRegistryEscapes closes the loop the v3 schema exists for: an
// escape summary decoded from a facts file rides SeedRegistry into the
// SectionInfo, and a verify-mode run of the speculating section latches
// the injected escape divergence exactly once.
func TestSeedRegistryEscapes(t *testing.T) {
	f := &File{
		Module: "repro",
		Sections: []Section{{
			ID: "repro/pkg:a.go:7:2", Pkg: "repro/pkg", Func: "T.View", Mode: "ReadOnly",
			Class: ClassElidable, MaxRetries: 1,
			Escapes: []string{"T.items"},
		}},
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewSectionRegistry(true, 4, nil)
	if n := SeedRegistry(reg, decoded); n != 1 {
		t.Fatalf("seeded %d sections, want 1", n)
	}
	info := reg.Section("repro/pkg:a.go:7:2")

	vm := jthread.NewVM()
	th := vm.Attach("t")
	l := core.New(nil)
	for i := 0; i < 4; i++ {
		l.ReadOnlySection(th, info, func() {})
	}
	if got := reg.EscapeDivergences(); got != 1 {
		t.Fatalf("escape divergences = %d, want exactly 1 (latched once)", got)
	}
	if !info.EscapeDiverged() {
		t.Fatal("section not marked escape-diverged")
	}
}

// TestSeedRegistryGuards closes the facts→runtime loop the v2 schema
// exists for: guard maps decoded from a facts file ride SeedRegistry
// into the SectionInfo, and a verify-mode run under the wrong lock
// latches the guard divergence.
func TestSeedRegistryGuards(t *testing.T) {
	f := &File{
		Module: "repro",
		Sections: []Section{{
			ID: "repro/pkg:a.go:5:2", Pkg: "repro/pkg", Func: "T.Get", Mode: "ReadOnly",
			Class: ClassElidable, MaxRetries: 1,
			ReadGuards: map[string]string{"T.val": "T.mu"},
		}},
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewSectionRegistry(true, 4, nil)
	if n := SeedRegistry(reg, decoded); n != 1 {
		t.Fatalf("seeded %d sections, want 1", n)
	}
	info := reg.Section("repro/pkg:a.go:5:2")
	if info.Proof != core.ProofElidable {
		t.Fatalf("seeded proof = %v, want elidable", info.Proof)
	}

	vm := jthread.NewVM()
	th := vm.Attach("t")
	wrongLock := core.New(nil)
	wrongLock.SetStaticID("T.other")
	wrongLock.ReadOnlySection(th, info, func() {})
	if got := reg.GuardDivergences(); got != 1 {
		t.Fatalf("guard divergences = %d, want 1 after running under the wrong lock", got)
	}
	if !info.GuardDiverged() {
		t.Fatal("section not marked guard-diverged")
	}
}

func TestProofOf(t *testing.T) {
	cases := map[Class]string{
		ClassElidable:   "elidable",
		ClassReadMostly: "read-mostly",
		ClassWriting:    "writing",
		ClassAnnotated:  "annotated",
	}
	for c, want := range cases {
		if got := ProofOf(c).String(); got != want {
			t.Errorf("ProofOf(%s) = %s, want %s", c, got, want)
		}
	}
}
