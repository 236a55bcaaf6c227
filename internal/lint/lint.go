// Package lint implements miclint, a suite of static analyzers that
// mechanically enforce the determinism and anonymity invariants the
// simulator's reproducibility and the paper's claims rest on (see README.md
// in this directory and the "Determinism contract" section of DESIGN.md).
//
// The framework mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Diagnostic) but is self-contained on the standard library: packages
// are loaded with `go list -export` and type-checked against compiler
// export data, so the linter needs no third-party modules and runs in
// offline build environments.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one check: a name diagnostics are reported under
// (and suppressed by), documentation, and a Run function applied once per
// package.
type Analyzer struct {
	// Name identifies the check in diagnostics and in
	// `// lint:ignore <name> <reason>` directives. It must look like a Go
	// identifier.
	Name string

	// Doc is a one-paragraph description of what the check enforces.
	Doc string

	// DeterministicOnly restricts the analyzer to packages carrying the
	// `// lint:deterministic` directive. Analyzers that enforce invariants
	// of virtual-time code (detrange, virtclock) set this; structural
	// checks (handlerblock, addrleak, errdrop) run everywhere.
	DeterministicOnly bool

	// Run performs the analysis on one package and reports findings via
	// pass.Reportf. Returning an error aborts the whole lint run.
	Run func(pass *Pass) error
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Deterministic reports whether the package is tagged with the
	// `// lint:deterministic` directive.
	Deterministic bool

	// dirs carries the package's parsed directives so analyzers with
	// directive-declared inputs (addrleak's lint:secret sources) can
	// resolve them against declarations.
	dirs *directives

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos under the analyzer's check name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned so suppression directives and
// editors can locate it.
type Diagnostic struct {
	Check   string
	Pos     token.Pos
	Message string
}

// String renders the diagnostic with a resolved position.
func (d Diagnostic) render(fset *token.FileSet) string {
	return fmt.Sprintf("%s: %s (%s)", fset.Position(d.Pos), d.Message, d.Check)
}

// Finding is a non-suppressed diagnostic resolved against source positions,
// ready for printing.
type Finding struct {
	Position token.Position
	Check    string
	Message  string
}

// String formats the finding go-vet style.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Check)
}

// Run applies every analyzer to every package and returns the findings that
// survive `// lint:ignore` suppression, sorted by position. Malformed
// directives (unknown check name, missing reason) are themselves reported
// as findings under the "directive" pseudo-check, so a typo in a
// suppression cannot silently disable it.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Finding, error) {
	// Directive check names are validated against the full suite, not just
	// the analyzers selected for this run: suppressing a check that is not
	// running is legitimate (miclint -checks ...), naming one that does
	// not exist is a typo that would silently suppress nothing.
	known := map[string]bool{"directive": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var findings []Finding
	for _, pkg := range pkgs {
		dirs := parseDirectives(pkg.Fset, pkg.Files)
		for _, bad := range dirs.malformed(known) {
			findings = append(findings, Finding{
				Position: pkg.Fset.Position(bad.pos),
				Check:    "directive",
				Message:  bad.problem,
			})
		}

		var diags []Diagnostic
		for _, a := range analyzers {
			if a.DeterministicOnly && !dirs.deterministic {
				continue
			}
			pass := &Pass{
				Analyzer:      a,
				Fset:          pkg.Fset,
				Files:         pkg.Files,
				Pkg:           pkg.Types,
				TypesInfo:     pkg.TypesInfo,
				Deterministic: dirs.deterministic,
				dirs:          dirs,
				report:        func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if dirs.suppressed(d.Check, pos) {
				continue
			}
			findings = append(findings, Finding{Position: pos, Check: d.Check, Message: d.Message})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Check < findings[j].Check
	})
	return findings, nil
}

// Analyzers returns the full miclint suite in reporting order: the
// determinism checks, then the anonymity contract (addrleak) and errdrop.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRange, VirtClock, HandlerBlock, AddrLeak, ErrDrop}
}
