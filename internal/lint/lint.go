// Package lint aggregates the project's five analyzers (hotalloc,
// locksafe, metricname, spanpair, statemachine) for the cmd/vbenchlint
// driver and the self-lint test. Each analyzer guards one repository
// invariant; docs/LINT.md describes them in detail, with the bug or
// contract that justifies each.
package lint

import (
	"vbench/internal/lint/analysis"
	"vbench/internal/lint/hotalloc"
	"vbench/internal/lint/locksafe"
	"vbench/internal/lint/metricname"
	"vbench/internal/lint/spanpair"
	"vbench/internal/lint/statemachine"
)

// Analyzers returns every project analyzer, in the order they are
// reported.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotalloc.Analyzer,
		locksafe.Analyzer,
		metricname.Analyzer,
		spanpair.Analyzer,
		statemachine.Analyzer,
	}
}
