package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string
	Dir       string
	GoFiles   []string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves patterns (as the go command would, e.g. "./...") relative to
// dir and returns the matched packages parsed and type-checked.
//
// Dependencies — including the standard library — are resolved from
// compiler export data produced by `go list -export`, which works from the
// local build cache without network access. Only non-test Go files are
// analyzed: test files run under the race detector already, and the
// determinism contract governs code that executes inside the simulation
// engine.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:      p.ImportPath,
			Dir:       p.Dir,
			GoFiles:   p.GoFiles,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}

// LoadProgram loads the whole program of the module containing dir: the
// module's packages (./...) and, read for references only, those of every
// module one directory below its root — benchmark/, whose
// `replace mic => ../` lets it import mic/internal/... .
func LoadProgram(dir string) (*Program, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return nil, fmt.Errorf("%s is not inside a module", dir)
	}
	root := filepath.Dir(gomod)
	pkgs, err := Load(root, "./...")
	if err != nil {
		return nil, err
	}
	prog := &Program{Pkgs: pkgs}
	nested, _ := filepath.Glob(filepath.Join(root, "*", "go.mod"))
	for _, mod := range nested {
		refs, err := Load(filepath.Dir(mod), "./...")
		if err != nil {
			return nil, err
		}
		prog.Refs = append(prog.Refs, refs...)
	}
	return prog, nil
}
