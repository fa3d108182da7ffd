package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegistryConcurrentStress(t *testing.T) {
	reg := NewRegistry()
	const workers = 16
	const opsPerWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("user-%d", w%4) // contend on 4 identities
			for i := 0; i < opsPerWorker; i++ {
				switch i % 4 {
				case 0:
					reg.Revoke(id, "stress")
				case 1:
					reg.IsRevoked(id)
				case 2:
					_ = reg.Check(id)
				case 3:
					reg.Unrevoke(id)
				}
			}
		}(w)
	}
	wg.Wait()
	// Steady state: reachable, no panics; entries snapshot is coherent.
	entries := reg.Entries()
	for _, e := range entries {
		if e.ID == "" {
			t.Fatal("empty entry after stress")
		}
	}
}

func TestRegistryEntriesSnapshotIsolation(t *testing.T) {
	reg := NewRegistry()
	reg.Revoke("a@x", "r")
	entries := reg.Entries()
	entries[0].ID = "tampered"
	if reg.IsRevoked("tampered") || !reg.IsRevoked("a@x") {
		t.Fatal("Entries leaked internal state")
	}
}
