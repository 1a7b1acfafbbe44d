package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"testing"
)

func sampleDiags(root string) []Diagnostic {
	return []Diagnostic{
		{
			Pos:     token.Position{Filename: filepath.Join(root, "internal", "rex", "rex.go"), Line: 10, Column: 3},
			Check:   "maporder",
			Message: "iteration over map m has an order-dependent effect",
		},
		{
			Pos:     token.Position{Filename: filepath.Join(root, "cmd", "geoserve", "server.go"), Line: 42, Column: 7},
			Check:   "lintdirective",
			Message: "malformed lint:ignore",
		},
	}
}

// decodeSARIF unmarshals into untyped JSON so the test checks the wire
// shape, not our own struct round-trip.
func decodeSARIF(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	return doc
}

// TestSARIFConformance pins the SARIF 2.1.0 subset GitHub code
// scanning requires: schema/version headers, a named driver with a
// rule table, and results whose locations carry module-relative URIs
// against %SRCROOT%.
func TestSARIFConformance(t *testing.T) {
	root := filepath.Join("/", "work", "hoiho")
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sampleDiags(root), All(), root); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	doc := decodeSARIF(t, buf.Bytes())

	if got := doc["$schema"]; got != "https://json.schemastore.org/sarif-2.1.0.json" {
		t.Errorf("$schema = %v", got)
	}
	if got := doc["version"]; got != "2.1.0" {
		t.Errorf("version = %v", got)
	}
	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one", doc["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "hoiholint" {
		t.Errorf("driver.name = %v", driver["name"])
	}

	rules := driver["rules"].([]any)
	if len(rules) != len(All())+1 { // every analyzer + lintdirective
		t.Fatalf("got %d rules, want %d", len(rules), len(All())+1)
	}
	ruleIDs := make([]string, len(rules))
	for i, r := range rules {
		rule := r.(map[string]any)
		ruleIDs[i] = rule["id"].(string)
		if rule["shortDescription"].(map[string]any)["text"] == "" {
			t.Errorf("rule %s has empty shortDescription", rule["id"])
		}
		if lvl := rule["defaultConfiguration"].(map[string]any)["level"]; lvl != "error" {
			t.Errorf("rule %s level = %v", rule["id"], lvl)
		}
	}

	results := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	first := results[0].(map[string]any)
	if first["ruleId"] != "maporder" {
		t.Errorf("results[0].ruleId = %v", first["ruleId"])
	}
	// ruleIndex must point at the matching rule table entry.
	idx := int(first["ruleIndex"].(float64))
	if idx < 0 || idx >= len(ruleIDs) || ruleIDs[idx] != "maporder" {
		t.Errorf("results[0].ruleIndex = %d, rules[%d] = %q", idx, idx, ruleIDs[idx])
	}
	loc := first["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	art := loc["artifactLocation"].(map[string]any)
	if art["uri"] != "internal/rex/rex.go" {
		t.Errorf("uri = %v, want module-relative forward-slash path", art["uri"])
	}
	if art["uriBaseId"] != "%SRCROOT%" {
		t.Errorf("uriBaseId = %v", art["uriBaseId"])
	}
	region := loc["region"].(map[string]any)
	if region["startLine"].(float64) != 10 || region["startColumn"].(float64) != 3 {
		t.Errorf("region = %v", region)
	}

	// The unregistered lintdirective check still resolves to a rule.
	second := results[1].(map[string]any)
	idx = int(second["ruleIndex"].(float64))
	if ruleIDs[idx] != "lintdirective" {
		t.Errorf("lintdirective ruleIndex = %d, rules[%d] = %q", idx, idx, ruleIDs[idx])
	}
}

// TestSARIFEmpty checks the clean-run report: still a valid log, with
// the full rule table and an empty (not absent, not null) results
// array — how code scanning learns old findings are resolved.
func TestSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, All(), "/work/hoiho"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	doc := decodeSARIF(t, buf.Bytes())
	run := doc["runs"].([]any)[0].(map[string]any)
	results, ok := run["results"].([]any)
	if !ok {
		t.Fatalf("results missing or null: %v", run["results"])
	}
	if len(results) != 0 {
		t.Errorf("got %d results, want 0", len(results))
	}
	rules := run["tool"].(map[string]any)["driver"].(map[string]any)["rules"].([]any)
	if len(rules) != len(All()) {
		t.Errorf("got %d rules, want %d", len(rules), len(All()))
	}
}
