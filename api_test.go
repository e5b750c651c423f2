package aimes_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAPISurface pins the exported surface of package aimes — every exported
// top-level identifier, and every exported method declared here on an
// exported type — against testdata/api.txt, so the surface cannot regrow
// unnoticed. A deliberate change edits that file in the same commit.
func TestAPISurface(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			got = append(got, id.Name)
		}
	}
	for _, fi := range files {
		if !strings.HasSuffix(fi.Name(), ".go") || strings.HasSuffix(fi.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), fi.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() && d.Name.IsExported() {
					got = append(got, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)

	data, err := os.ReadFile("testdata/api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("new exported name %s: not in testdata/api.txt", name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("testdata/api.txt lists %s, which package aimes no longer exports", name)
		}
	}
	if t.Failed() {
		t.Logf("if the change is intended, testdata/api.txt should read:\n%s", strings.Join(got, "\n"))
	}
}
