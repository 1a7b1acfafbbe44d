package lint

// Machine-readable diagnostic output. WriteSARIF emits SARIF 2.1.0 —
// the interchange format GitHub code scanning ingests, so hoiholint
// findings surface as inline annotations on pull requests. The
// rendering is deterministic for a given diagnostic slice (lint.Run
// already sorts), and it is written even when there are no findings:
// an empty `results` array is how CI tells code scanning "previous
// findings are resolved".

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
)

// sarifLog is the SARIF 2.1.0 top level. Field shapes follow the OASIS
// schema; the conformance test pins the subset we rely on.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string              `json:"id"`
	ShortDescription sarifMessage        `json:"shortDescription"`
	DefaultConfig    *sarifConfiguration `json:"defaultConfiguration,omitempty"`
}

type sarifConfiguration struct {
	Level string `json:"level"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders the diagnostics as one SARIF 2.1.0 run. analyzers
// seed the rule table (so every registered check appears, findings or
// not); checks that report without being registered — lintdirective —
// get rules appended on demand. root, when non-empty, rebases file
// paths to module-relative form, which is what GitHub's uploader
// expects ("%SRCROOT%" is SARIF's name for the checkout root).
func WriteSARIF(w io.Writer, diags []Diagnostic, analyzers []*Analyzer, root string) error {
	var rules []sarifRule
	index := make(map[string]int)
	addRule := func(id, doc string) int {
		if i, ok := index[id]; ok {
			return i
		}
		index[id] = len(rules)
		rules = append(rules, sarifRule{
			ID:               id,
			ShortDescription: sarifMessage{Text: doc},
			DefaultConfig:    &sarifConfiguration{Level: "error"},
		})
		return index[id]
	}
	for _, a := range analyzers {
		addRule(a.Name, a.Doc)
	}
	// Unregistered checks, in deterministic order.
	extra := make(map[string]bool)
	for _, d := range diags {
		if _, ok := index[d.Check]; !ok {
			extra[d.Check] = true
		}
	}
	extras := make([]string, 0, len(extra))
	for id := range extra {
		extras = append(extras, id)
	}
	sort.Strings(extras)
	for _, id := range extras {
		addRule(id, "reported by the lint framework")
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		uri := d.Pos.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, uri); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
				uri = rel
			}
		}
		results = append(results, sarifResult{
			RuleID:    d.Check,
			RuleIndex: index[d.Check],
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(uri),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:  "hoiholint",
				Rules: rules,
			}},
			Results: results,
		}},
	})
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}
