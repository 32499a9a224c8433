package dynunlock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryFunctionHasACaller keeps code that nothing calls from building
// up again. It parses every non-test Go file in the repository, the
// examples and cmd/dynbench included, and fails on each top-level function
// or method whose name appears nowhere else in non-test code as an
// identifier: anywhere for an exported name, in its own directory for an
// unexported one. A name match cannot tell two methods of the same name
// apart, so the check is a floor: what it reports is certainly unused.
func TestEveryFunctionHasACaller(t *testing.T) {
	keep := map[string]string{
		"AttackMultiCtx": "core: the paper's second-capture refinement (DESIGN §3b); its tests run it",
		"NewSeq":         "sim: the gate-level reference the oracle and core tests check the AIG stepper against",
		"Events":         "trace.Collector: tests in other packages read a run's events through it",
		"Unwrap":         "flight.BundleError: errors.Is and errors.As call it",
		"UnmarshalJSON":  "flight: encoding/json calls it",
		"IsBoolFlag":     "metrics.ProgressFlag: the flag package calls it",
	}
	type decl struct {
		name, dir string
		pos       token.Position
	}
	var decls []decl
	uses := map[string]map[string]bool{} // identifier → directories naming it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		own := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			if fd, ok := dl.(*ast.FuncDecl); ok {
				own[fd.Name] = true
				decls = append(decls, decl{fd.Name.Name, dir, fset.Position(fd.Name.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				if uses[id.Name] == nil {
					uses[id.Name] = map[string]bool{}
				}
				uses[id.Name][dir] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		if d.name == "main" || d.name == "init" || keep[d.name] != "" {
			continue
		}
		if ast.IsExported(d.name) && len(uses[d.name]) > 0 || uses[d.name][d.dir] {
			continue
		}
		unused = append(unused, d.pos.String()+" "+d.name)
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d functions have no caller outside tests; delete them, or move a test's reference into its _test.go file:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}
