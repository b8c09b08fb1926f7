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
	"sort"
	"strconv"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path   string
	Name   string
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Export     string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded package stream. -export compiles (or reuses the
// build cache for) every package and reports the export-data file the
// type checker imports from, so the loader needs no network and no
// dependency beyond the go toolchain itself.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the export-data files `go list
// -export` reported, translating through one package's ImportMap first
// (vendoring and test-variant renames; identity entries are omitted).
type exportImporter struct {
	gc        types.Importer    // gc export-data importer, shared across packages
	importMap map[string]string // this package's source-path -> canonical-path map
}

func (ei exportImporter) Import(path string) (*types.Package, error) {
	return ei.ImportFrom(path, "", 0)
}

func (ei exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if m, ok := ei.importMap[path]; ok {
		path = m
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.gc.Import(path)
}

// newGCImporter returns a shared gc importer whose lookup serves export
// data from the canonical-path -> file map.
func newGCImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// CheckPackage type-checks one package from an explicit file list and
// export map — the `go vet -vettool` entry point, where cmd/go hands us
// exactly this information in the .cfg file.
func CheckPackage(path string, files []string, importMap, packageFile map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	gc := newGCImporter(fset, packageFile)
	var dir string
	if len(files) > 0 {
		dir = filepath.Dir(files[0])
	}
	return checkFiles(fset, path, dir, files, exportImporter{gc: gc, importMap: importMap})
}

// checkFiles parses and type-checks one package's files. Names in files
// may be relative to dir.
func checkFiles(fset *token.FileSet, path, dir string, files []string, imp types.Importer) (*Package, error) {
	syntax := make([]*ast.File, 0, len(files))
	for _, name := range files {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		syntax = append(syntax, f)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{
		Path:   path,
		Name:   tpkg.Name(),
		Fset:   fset,
		Syntax: syntax,
		Types:  tpkg,
		Info:   info,
	}, nil
}

// LoadDir type-checks a single directory of Go files that is not part
// of any module build — the analysistest fixture path. Imports are
// limited to the standard library and resolved with one `go list
// -export` run over the fixture's import set.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name()) // checkFiles joins with dir
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(files)

	// A fast parse pass collects the import set before type-checking.
	fset := token.NewFileSet()
	importSet := make(map[string]bool)
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			importSet[p] = true
		}
	}
	imports := make([]string, 0, len(importSet))
	for p := range importSet {
		if p != "unsafe" {
			imports = append(imports, p)
		}
	}
	sort.Strings(imports)

	exports := make(map[string]string)
	if len(imports) > 0 {
		listed, err := goList(dir, imports)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset = token.NewFileSet()
	gc := newGCImporter(fset, exports)
	return checkFiles(fset, filepath.Base(dir), dir, files, exportImporter{gc: gc})
}
