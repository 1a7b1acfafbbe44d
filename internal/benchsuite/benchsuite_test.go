package benchsuite

import (
	"path/filepath"
	"sort"
	"testing"

	"hoiho/internal/benchrec"
)

// TestTableCoversLatestRecord checks that every benchmark of the newest
// committed BENCH_*.json is an entry of the table, so a fresh record
// stays comparable with it, and that every entry has a unique name and
// a description for geobench -list.
func TestTableCoversLatestRecord(t *testing.T) {
	entries := make(map[string]bool)
	for _, e := range Table {
		if entries[e.Name] {
			t.Errorf("duplicate entry %s", e.Name)
		}
		if e.Doc == "" {
			t.Errorf("entry %s has no description", e.Name)
		}
		entries[e.Name] = true
	}

	records, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no committed BENCH_*.json at the repo root")
	}
	sort.Strings(records)
	latest := records[len(records)-1]
	rec, err := benchrec.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rec.Benchmarks {
		if !entries[b.Name] {
			t.Errorf("%s records %s, which is not an entry of the table", latest, b.Name)
		}
	}
}
