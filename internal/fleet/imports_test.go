package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mufuzz/internal/store"
)

// fullListImports is the selection leaseImportsLocked made when it read
// and checked the whole bucket through Store.Seeds before picking.
func fullListImports(t *testing.T, st *store.Store, c *campaign, limit int) []SeedObject {
	t.Helper()
	entries, err := st.Seeds(c.bucket)
	if err != nil {
		t.Fatal(err)
	}
	var out []SeedObject
	for _, e := range entries {
		if len(out) >= limit {
			break
		}
		if c.imported[e.Name] || c.exported[e.Name] {
			continue
		}
		out = append(out, SeedObject{Fingerprint: e.Name, Payload: e.Payload})
	}
	return out
}

// TestLeaseImportsReadOnlyCandidates fills a bucket with more seeds than
// one lease ships, corrupts one in the middle of the selection and checks
// that the name-first walk picks exactly what the full List walk picked,
// lease after lease.
func TestLeaseImportsReadOnlyCandidates(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const bucket, limit = "B", 3
	var names []string
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("%02x", i)
		names = append(names, name)
		if _, err := st.PutSeed(bucket, name, []byte("seed "+name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(st.Root(), string(store.KindSeed), bucket, names[3]), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Store: st, ImportPerLease: limit})
	c := &campaign{
		bucket:   bucket,
		imported: map[string]bool{names[1]: true},
		exported: map[string]bool{names[4]: true},
	}
	for lease := 0; ; lease++ {
		want := fullListImports(t, st, c, limit)
		got := co.leaseImportsLocked(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lease %d: imports %v, full-List selection %v", lease, got, want)
		}
		if len(got) == 0 {
			break
		}
		if lease == 0 && (got[0].Fingerprint != names[0] || got[1].Fingerprint != names[2] || got[2].Fingerprint != names[5]) {
			t.Fatalf("first lease picked %v, want seeds 00, 02, 05", got)
		}
		for _, s := range got {
			c.imported[s.Fingerprint] = true
		}
	}
	if c.imported[names[3]] {
		t.Fatal("corrupt seed was shipped")
	}
}
