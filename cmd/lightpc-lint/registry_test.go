package main

import (
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameRegisteredAnalyzers keeps the registry and its two
// descriptions in agreement: the package doc's analyzer list and README's
// "Static analysis" table must name exactly the registered analyzers, so
// adding, merging or retiring one cannot leave a stale row behind.
func TestDocsNameRegisteredAnalyzers(t *testing.T) {
	var want []string
	for _, a := range analyzers {
		want = append(want, a.Name)
	}
	slices.Sort(want)

	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Analyzer entries are the indented lines that open with a name
	// followed by a column gap.
	docRows := regexp.MustCompile(`(?m)^\t([a-z]+) {2,}\S`).FindAllStringSubmatch(f.Doc.Text(), -1)
	check(t, "cmd/lightpc-lint package doc", docRows, want)

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(readme)
	start := strings.Index(section, "\n## Static analysis\n")
	if start < 0 {
		t.Fatal(`README.md has no "## Static analysis" section`)
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	tableRows := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(section, -1)
	check(t, `README.md "Static analysis" table`, tableRows, want)
}

func check(t *testing.T, where string, rows [][]string, want []string) {
	t.Helper()
	var got []string
	for _, r := range rows {
		got = append(got, r[1])
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s names analyzers %v; registered: %v", where, got, want)
	}
}
