package docscheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/metrics"
)

// godocPackages are the packages whose exported surface must be fully
// documented. The public package is the API users program against; the
// internal ones are the protocol core that every adapter builds on.
var godocPackages = []string{
	".",
	"internal/engine",
	"internal/store",
	"internal/live",
	"internal/scenario",
	"internal/wal",
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("resolving repo root: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root %s has no go.mod: %v", root, err)
	}
	return root
}

func readDoc(t *testing.T, rel string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot(t), rel))
	if err != nil {
		t.Fatalf("reading %s: %v", rel, err)
	}
	return string(b)
}

// TestExportedIdentifiersAreDocumented is the godoc lint: every exported
// top-level declaration in the core packages needs a doc comment, and every
// package needs a package comment. Methods on unexported receiver types are
// exempt — they are not part of the rendered godoc surface (they only show
// through the interfaces they satisfy, which carry the contract docs).
func TestExportedIdentifiersAreDocumented(t *testing.T) {
	root := repoRoot(t)
	var missing []string
	for _, dir := range godocPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			hasPkgDoc := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					hasPkgDoc = true
					break
				}
			}
			if !hasPkgDoc {
				missing = append(missing, fmt.Sprintf("%s: package %s has no package comment", dir, name))
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					for _, m := range undocumented(decl) {
						pos := fset.Position(decl.Pos())
						missing = append(missing, fmt.Sprintf("%s: %s (%s:%d)",
							dir, m, filepath.Base(pos.Filename), pos.Line))
					}
				}
			}
		}
	}
	for _, m := range missing {
		t.Errorf("undocumented export: %s", m)
	}
}

// undocumented returns descriptions of the exported identifiers declared by
// decl that lack a doc comment.
func undocumented(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
			kind := "func"
			if d.Recv != nil {
				kind = "method"
			}
			out = append(out, kind+" "+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					out = append(out, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						out = append(out, "value "+n.Name)
					}
				}
			}
		}
	}
	return out
}

// receiverExported reports whether a function is either free-standing or a
// method on an exported type.
func receiverExported(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr: // generic receiver: T[P]
			typ = x.X
		case *ast.IndexListExpr: // generic receiver: T[P1, P2]
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// TestOperationsDocCoversEveryCounter fails when a counter the node can
// report is missing from docs/OPERATIONS.md — either under its registry
// name (`live.push.sent`) or under the name /metrics exposes it as
// (pushpull_live_push_sent_total). Adding a counter to live.CounterNames or
// pushpull.MetricNames without documenting it breaks this test.
func TestOperationsDocCoversEveryCounter(t *testing.T) {
	doc := readDoc(t, filepath.Join("docs", "OPERATIONS.md"))
	names := pushpull.MetricNames()
	if len(names) < 20 {
		t.Fatalf("MetricNames returned only %d names; the canonical list is broken", len(names))
	}
	for _, name := range names {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document counter `%s`", name)
		}
		exposed := "pushpull_" + metrics.SanitizeMetricName(name) + "_total"
		if !strings.Contains(doc, exposed) {
			t.Errorf("docs/OPERATIONS.md does not mention %s, the /metrics name of `%s`", exposed, name)
		}
	}
}

// TestOperationsDocCoversEveryFlag parses cmd/pushpulld/main.go and fails
// when a registered command-line flag is not documented (as `-name`) in
// docs/OPERATIONS.md.
func TestOperationsDocCoversEveryFlag(t *testing.T) {
	doc := readDoc(t, filepath.Join("docs", "OPERATIONS.md"))
	flags := daemonFlags(t)
	if len(flags) < 10 {
		t.Fatalf("parsed only %d flags from cmd/pushpulld/main.go; the extraction is broken: %v",
			len(flags), flags)
	}
	for _, name := range flags {
		if !strings.Contains(doc, "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document pushpulld flag `-%s`", name)
		}
	}
}

// daemonFlags extracts every flag name registered in cmd/pushpulld/main.go:
// calls of the form fs.String("name", ...), fs.Duration("name", ...) and so
// on, matched syntactically.
func daemonFlags(t *testing.T) []string {
	t.Helper()
	src := filepath.Join(repoRoot(t), "cmd", "pushpulld", "main.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, 0)
	if err != nil {
		t.Fatalf("parsing %s: %v", src, err)
	}
	registrars := map[string]bool{
		"String": true, "Bool": true, "Int": true, "Int64": true,
		"Uint": true, "Uint64": true, "Float64": true, "Duration": true,
	}
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !registrars[sel.Sel.Name] {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok || (recv.Name != "fs" && recv.Name != "flag") {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err == nil && name != "" {
			flags = append(flags, name)
		}
		return true
	})
	return flags
}

// citingDocs are the documents whose citations of tests and repo paths
// must resolve.
var citingDocs = []string{"README.md", "DESIGN.md", filepath.Join("docs", "OPERATIONS.md")}

var (
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*`)
	citedPath = regexp.MustCompile("`((?:internal|cmd|docs|examples|e2ebench)/[^`\\s]*)")
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// TestDocsCiteExistingTestsAndPaths fails when README.md, DESIGN.md or
// docs/OPERATIONS.md cite a Test/Benchmark/Fuzz function that no _test.go
// file in the tree defines, or a backticked repo path (internal/…, cmd/…,
// docs/…, examples/…, e2ebench/…) that does not exist. Renaming a test or
// deleting a file without updating the prose breaks this test.
func TestDocsCiteExistingTestsAndPaths(t *testing.T) {
	root := repoRoot(t)
	defined := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning test files: %v", err)
	}
	if len(defined) < 100 {
		t.Fatalf("found only %d test functions; the scan is broken", len(defined))
	}
	cited := 0
	for _, doc := range citingDocs {
		text := readDoc(t, doc)
		for _, name := range citedTest.FindAllString(text, -1) {
			cited++
			if !defined[name] {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
		for _, m := range citedPath.FindAllStringSubmatch(text, -1) {
			cited++
			if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(m[1]))); err != nil {
				t.Errorf("%s cites `%s`, which does not exist", doc, m[1])
			}
		}
	}
	if cited == 0 {
		t.Fatal("no citations found; the extraction is broken")
	}
}

// TestReadmeLinksTheDocSurface keeps the front door honest: the top-level
// README must exist and point at the design document and the operations
// guide, and the operations guide must exist at the path the README links.
func TestReadmeLinksTheDocSurface(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, want := range []string{"DESIGN.md", "docs/OPERATIONS.md", "cmd/pushpulld", "pushpull.Open"} {
		if !strings.Contains(readme, want) {
			t.Errorf("README.md does not mention %s", want)
		}
	}
}
