// Package linttest runs lint analyzers over fixture packages, mirroring
// golang.org/x/tools/go/analysis/analysistest (which the offline build
// cannot vendor).
//
// Fixtures live in a GOPATH-style tree under the analyzer's directory:
//
//	testdata/src/<import/path>/*.go
//
// Expected findings are declared on the offending line:
//
//	rand.Intn(6) // want `math/rand`
//
// Each `...`-quoted fragment is a regular expression; every diagnostic on
// a line must match one of the line's want patterns, and every pattern
// must be matched by at least one diagnostic. A fixture file with no want
// comments asserts silence. An analyzer may report at most one diagnostic
// per position.
//
// Imports among fixture packages resolve inside testdata/src; everything
// else (the standard library) is type-checked from source via go/importer,
// which needs no network and no precompiled archives.
//
// The harness is fact-aware: every fixture package is analyzed as soon as
// it is type-checked — dependencies first, since type-checking pulls them
// in depth-first — and all passes share one FactStore. A fixture package
// can therefore exercise cross-package fact propagation exactly as the
// unitchecker driver does under go vet: annotate a function in a dependency
// fixture and assert on diagnostics in its importer.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// Run analyzes each fixture package under dir/src and compares the
// diagnostics (after //lint:allow filtering) against the want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := &loader{
		fset:     token.NewFileSet(),
		srcDir:   filepath.Join(dir, "src"),
		pkgs:     make(map[string]*loadedPkg),
		std:      importer.ForCompiler(token.NewFileSet(), "source", nil),
		analyzer: a,
		store:    analysis.NewFactStore(),
	}
	for _, path := range pkgPaths {
		path := path
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			t.Helper()
			lp, err := ld.load(path)
			if err != nil {
				t.Fatalf("loading fixture package %s: %v", path, err)
			}
			checkPackage(t, ld.fset, lp)
		})
	}
}

type loadedPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	diags []analysis.Diagnostic // analyzer output, post //lint:allow filtering
}

type loader struct {
	fset     *token.FileSet
	srcDir   string
	pkgs     map[string]*loadedPkg
	std      types.Importer
	analyzer *analysis.Analyzer
	store    *analysis.FactStore
}

// Import lets the loader serve as the type-checker's importer: fixture
// packages shadow the standard library, which is the fallback.
//
//lightpc:pure test harness: fixtures come off the host filesystem by design
func (ld *loader) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(ld.srcDir, filepath.FromSlash(path))); err == nil && st.IsDir() {
		lp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return ld.std.Import(path)
}

// load parses, type-checks, and analyzes one fixture package (memoized).
//
//lightpc:pure test harness: fixtures come off the host filesystem by design
func (ld *loader) load(path string) (*loadedPkg, error) {
	if lp, ok := ld.pkgs[path]; ok {
		if lp == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return lp, nil
	}
	ld.pkgs[path] = nil // cycle guard

	pkgDir := filepath.Join(ld.srcDir, filepath.FromSlash(path))
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", pkgDir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(pkgDir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := &types.Config{Importer: ld}
	pkg, err := tc.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{path: path, files: files, pkg: pkg, info: info}

	// Analyze immediately: the type-checker has already loaded (and hence
	// analyzed) every fixture dependency, so their facts are in the store.
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  ld.analyzer,
		Fset:      ld.fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Facts:     ld.store,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := ld.analyzer.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s on %s: %v", ld.analyzer.Name, path, err)
	}
	lp.diags = analysis.FilterAllowed(ld.fset, files, ld.analyzer.Name, diags)

	ld.pkgs[path] = lp
	return lp, nil
}

func checkPackage(t *testing.T, fset *token.FileSet, lp *loadedPkg) {
	t.Helper()
	diags := lp.diags

	type key struct {
		file string
		line int
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[key][]*want)
	for _, f := range lp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, ok := parseWant(c.Text)
				if !ok {
					continue
				}
				posn := fset.Position(c.Pos())
				k := key{posn.Filename, posn.Line}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", posn, p, err)
					}
					wants[k] = append(wants[k], &want{re: re})
				}
			}
		}
	}

	// One finding per position: a second diagnostic at the same Pos would
	// match the same want and pass unnoticed.
	seen := make(map[token.Pos]string)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		if prev, dup := seen[d.Pos]; dup {
			t.Errorf("%s: two diagnostics at one position: %q and %q", posn, prev, d.Message)
		}
		seen[d.Pos] = d.Message
		k := key{posn.Filename, posn.Line}
		matched := false
		for _, w := range wants[k] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
}

// parseWant extracts the quoted patterns from a `// want "re" ...` comment.
func parseWant(comment string) ([]string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, "want ") {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
	var patterns []string
	for rest != "" {
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, false
			}
			patterns = append(patterns, rest[1:1+end])
			rest = strings.TrimSpace(rest[end+2:])
		case '"':
			// Find the closing unescaped quote, then unquote.
			i := 1
			for i < len(rest) && (rest[i] != '"' || rest[i-1] == '\\') {
				i++
			}
			if i >= len(rest) {
				return nil, false
			}
			s, err := strconv.Unquote(rest[:i+1])
			if err != nil {
				return nil, false
			}
			patterns = append(patterns, s)
			rest = strings.TrimSpace(rest[i+1:])
		default:
			return nil, false
		}
	}
	return patterns, len(patterns) > 0
}
