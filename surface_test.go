package dynplan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExportedSurfaceHasCallers keeps the root package's exported surface
// to what callers use: every exported function and method is named by a
// file in cmd/, examples/ or bench/, by an Example function, or by
// README.md, or it is Error, Unwrap or String (the interfaces those
// satisfy need no caller by name). Names are matched, not types, so a
// method shares a caller with any other of its name.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	used := map[string]bool{"Error": true, "Unwrap": true, "String": true}
	note := func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	}
	for _, dir := range []string{"cmd", "examples", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") {
				ast.Inspect(parse(path), note)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var exported []*ast.FuncDecl
	for _, path := range root {
		for _, d := range parse(path).Decls {
			fn, ok := d.(*ast.FuncDecl)
			switch {
			case !ok:
			case strings.HasSuffix(path, "_test.go"):
				if strings.HasPrefix(fn.Name.Name, "Example") {
					ast.Inspect(fn.Body, note)
				}
			case fn.Name.IsExported():
				exported = append(exported, fn)
			}
		}
	}
	for _, fn := range exported {
		name := fn.Name.Name
		if !used[name] && !regexp.MustCompile(`\b`+name+`\b`).Match(readme) {
			t.Errorf("%s: exported %s has no caller in cmd/, examples/, bench/ or an Example, and README does not name it",
				fset.Position(fn.Pos()), name)
		}
	}
}
