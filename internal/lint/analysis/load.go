package analysis

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
	"runtime"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// Load resolves patterns (e.g. "./...") relative to dir with
// `go list -export -deps -json`, parses and type-checks every
// matched non-dependency package from source, and returns them ready
// for Run. Dependencies are imported through the compiler export
// data the go command already produced, so loading is fast and works
// fully offline. extraArgs (such as "-tags" and a tag list) are passed
// to go list before the patterns.
func Load(dir string, extraArgs []string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, extraArgs...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var targets []*listPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports, nil)
	var pkgs []*Package
	for _, lp := range targets {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		var files []string
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		goVersion := ""
		if lp.Module != nil && lp.Module.GoVersion != "" {
			goVersion = "go" + lp.Module.GoVersion
		}
		pkg, err := typecheck(fset, lp.ImportPath, files, imp, goVersion)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses files and type-checks them as one package.
func typecheck(fset *token.FileSet, pkgPath string, files []string, imp types.Importer, goVersion string) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pkgPath, err)
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
	}
	tpkg, err := conf.Check(pkgPath, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("%s: type checking: %v", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     asts,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// newExportImporter returns a types importer that resolves packages
// from compiler export data files (exports maps import path to file),
// first rewriting source import paths through importMap (which may be
// nil) the way the go command's vet protocol specifies.
func newExportImporter(fset *token.FileSet, exports, importMap map[string]string) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	under := importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return &mapImporter{under: under, importMap: importMap}
}

// mapImporter applies an import-path rewrite before delegating to the
// export-data importer.
type mapImporter struct {
	under     types.ImporterFrom
	importMap map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *mapImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	return m.under.ImportFrom(path, dir, mode)
}

// ModuleDir returns the root directory of the main module containing
// dir (used by the self-lint test to locate the repository).
func ModuleDir(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}
