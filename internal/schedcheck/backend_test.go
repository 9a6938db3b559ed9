package schedcheck

import (
	"testing"
	"time"

	"repro/internal/backend"
)

// TestAllBackendsPassOracle runs every SPI backend through the shared
// invariant oracle under seeded random-walk exploration: the same thread
// mix, the same history checks, the same final-state accounting.
func TestAllBackendsPassOracle(t *testing.T) {
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			opts := Options{
				Backend: name,
				Writers: 1, Readers: 2, Upgraders: 1,
				Ops:  4,
				Seed: 0xb4c2e1,
			}
			res := Explore(opts, 10, 30*time.Second, nil)
			if res.Failing != nil {
				t.Fatalf("episode %d (seed %#x) failed:\n%v\nminimized: %v",
					res.Episode, res.EpisodeSeed, res.Failing.Violations, res.Minimized)
			}
			if res.Episodes == 0 {
				t.Fatal("no episodes executed")
			}
		})
	}
}
