package backend_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/workload"
)

// retiredNames reads the backend names that were deleted from the
// registry (testdata/retired_names.txt; '#' starts a comment line).
func retiredNames(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("testdata/retired_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			names = append(names, line)
		}
	}
	if len(names) == 0 {
		t.Fatal("testdata/retired_names.txt lists no names")
	}
	return names
}

// TestRetiredNamesFailCleanly pins what a deleted backend name does: New
// returns the unknown-backend error, which lists every name that does
// resolve, and workload.ParseImpl (the CLIs' -backend parser) rejects it.
func TestRetiredNamesFailCleanly(t *testing.T) {
	for _, name := range retiredNames(t) {
		be, err := backend.New(name, backend.Options{})
		if err == nil {
			t.Fatalf("New(%q) built %s; the name is retired", name, be.Name())
		}
		if !strings.Contains(err.Error(), "unknown backend") {
			t.Errorf("New(%q) error = %q, want the unknown-backend error", name, err)
		}
		for _, have := range []string{"vmlock", "rwlock", "solero"} {
			if !strings.Contains(err.Error(), have) {
				t.Errorf("New(%q) error = %q does not name %q", name, err, have)
			}
		}
		if impl, err := workload.ParseImpl(name); err == nil {
			t.Errorf("workload.ParseImpl(%q) = %v, want an error", name, impl)
		}
	}
}

// TestNamesParseAsImpls keeps the two CLI front ends in step: every
// registered backend name is also a workload implementation, so
// `solerocheck -sched -backend` and `lockstats -backend` accept the same
// set.
func TestNamesParseAsImpls(t *testing.T) {
	want := []string{"vmlock", "rwlock", "solero"}
	if got := backend.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range backend.Names() {
		if _, err := workload.ParseImpl(name); err != nil {
			t.Errorf("backend %q: %v", name, err)
		}
	}
}
