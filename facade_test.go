package ichannels_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeCallers are the files and trees whose use of the facade justifies
// a name: the CLI, the examples and the three end-to-end suites.
var facadeCallers = []string{"cmd", "examples", "conformance_test.go", "cluster_test.go", "chaos_test.go"}

// TestFacadeNamesHaveCallers keeps ichannels.go to the names something
// uses. Every exported name must be referenced by a facade caller or
// appear in the signature of a name that is kept; anything else is dead
// surface and belongs in its internal package only.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "ichannels.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each exported name maps to the part of its declaration a caller
	// sees: a function's signature, a type's definition, a value's type.
	sigs := map[string]ast.Node{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				sigs[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						sigs[s.Name.Name] = s.Type
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							sigs[n.Name] = s.Type
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, root := range facadeCallers {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for name := range facadeRefs(f) {
				used[name] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// A kept name keeps every facade name its signature mentions.
	var queue []string
	for name := range used {
		queue = append(queue, name)
	}
	for len(queue) > 0 {
		sig := sigs[queue[0]]
		queue = queue[1:]
		if sig == nil {
			continue
		}
		ast.Inspect(sig, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, ok := sigs[id.Name]; ok && !used[id.Name] {
					used[id.Name] = true
					queue = append(queue, id.Name)
				}
			}
			return true
		})
	}

	var unused []string
	for name := range sigs {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d facade names have no caller in %v and appear in no kept signature: %s",
			len(unused), facadeCallers, strings.Join(unused, ", "))
	}
}

// facadeRefs returns the names f selects from the ichannels package.
func facadeRefs(f *ast.File) map[string]bool {
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "ichannels" {
			local = "ichannels"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	refs := map[string]bool{}
	if local == "" {
		return refs
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				refs[sel.Sel.Name] = true
			}
		}
		return true
	})
	return refs
}
