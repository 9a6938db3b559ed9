package main

import "testing"

// Every seeded mutation must be caught under the default flags: the mode
// adds the threads a mutation needs, so none reports "all interleavings
// safe" (exit 0) without them.
func TestEveryMutationFailsWithDefaultFlags(t *testing.T) {
	for name := range mutations {
		want := 1
		if name == "none" {
			want = 0
		}
		if got := run([]string{"-mutate", name}); got != want {
			t.Errorf("-mutate %s exited %d, want %d", name, got, want)
		}
	}
}

// A thread-count flag given on the command line wins over the mutation's
// own: without a writer a blind upgrade has nothing to race.
func TestGivenThreadFlagsWin(t *testing.T) {
	if got := run([]string{"-mutate", "blind-upgrade", "-writers", "0", "-readers", "0"}); got != 0 {
		t.Errorf("blind-upgrade with no writer exited %d, want 0", got)
	}
}
