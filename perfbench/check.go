package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"armbar/internal/figures"
	"armbar/internal/report"
)

// digests.json holds, per workload, the sha256 of every output the
// benchmark checks (an experiment's rendered tables, or one fuzz
// case's verdict record) at defaultSeed, as produced by the commit
// that defined the benchmark. Regenerate it only for a change that is
// meant to alter seeded output: `go run . -print-digests`.
//
//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// render is an experiment's output as armbar prints it.
func render(tables []*report.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// digest is a truncated sha256: 64 bits are plenty to detect a change.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// checkTables reports a structural defect: a table count that differs
// from the registry's, or a table without rows.
func checkTables(exp figures.Experiment, tables []*report.Table) string {
	if len(tables) != exp.Tables {
		return fmt.Sprintf("%d tables, registry says %d", len(tables), exp.Tables)
	}
	for _, t := range tables {
		if t.Rows() == 0 {
			return fmt.Sprintf("table %q is empty", t.Title)
		}
	}
	return ""
}

// checkDigest compares an output against its recorded digest.
func checkDigest(want map[string]string, name, out string) string {
	w, ok := want[name]
	if !ok {
		return "no recorded digest"
	}
	if got := digest(out); got != w {
		return fmt.Sprintf("output digest %s, recorded %s", got, w)
	}
	return ""
}
