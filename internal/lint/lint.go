// Package lint aggregates the project's seven analyzers (detorder,
// hotalloc, leakgo, locksafe, metricname, spanpair, statemachine) for
// the cmd/vbenchlint driver and the self-lint test. Each analyzer
// guards one repository invariant; docs/LINT.md describes them in
// detail, with the bug or contract that justifies each.
package lint

import (
	"vbench/internal/lint/analysis"
	"vbench/internal/lint/detorder"
	"vbench/internal/lint/hotalloc"
	"vbench/internal/lint/leakgo"
	"vbench/internal/lint/locksafe"
	"vbench/internal/lint/metricname"
	"vbench/internal/lint/spanpair"
	"vbench/internal/lint/statemachine"
)

// Analyzers returns every project analyzer, in the order they are
// reported.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detorder.Analyzer,
		hotalloc.Analyzer,
		leakgo.Analyzer,
		locksafe.Analyzer,
		metricname.Analyzer,
		spanpair.Analyzer,
		statemachine.Analyzer,
	}
}
