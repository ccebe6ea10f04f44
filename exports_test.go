package hadoopcodes

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// methodsForInterfaces are method names a type carries to satisfy a
// standard interface (fmt.Stringer, error, sort and heap, io), which
// are called through that interface, not by name.
var methodsForInterfaces = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteTo": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// exportsWithoutCallers lists, as package.Name, the exported functions
// the guard lets stand with no non-test caller, each with its reason.
var exportsWithoutCallers = map[string]string{
	"serve.Resharding":        "the serve and reshard tests read a server's dual-ring state through it",
	"chaos.NewClient":         "the reshard gates drive their verified load through the chaos client",
	"durable.Syncs":           "the metadata tests' fsync count, until a file-ops seam counts syncs per store (ROADMAP item 3)",
	"hdfsraid.Create":         "the single-extent store constructor the hdfsraid, tier and root tests build stores with",
	"hdfsraid.ReadBlockInto":  "the one-block degraded read the recorded read-ladder benchmarks time",
	"mapred.LookupResult":     "the root Figure 4 and 5 benchmarks pick their reported cells with it",
	"gf256.MulSliceScalar":    "the log/exp-table reference the kernel tests and benchmarks compare against",
	"gf256.MulAddSliceScalar": "the log/exp-table reference the kernel tests and benchmarks compare against",
}

// TestExportsHaveCallers keeps the tree free of exported functions and
// methods that nothing but tests calls: every one declared in a
// non-test file under internal/ or cmd/ must be named, other than by
// its own declaration, in a non-test file of the module or of the
// benchmark module (bench/). The root package is the public facade and
// is exempt, as are methods that satisfy a standard interface and the
// entries of exportsWithoutCallers. Names are matched as identifiers,
// so a name used anywhere counts.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := make(map[string]bool) // identifiers named in non-test code
	type export struct{ name, at string }
	var exports []export
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		facade := filepath.Dir(path) == "."
		bench := strings.HasPrefix(path, "bench"+string(filepath.Separator))
		declared := make(map[*ast.Ident]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			name := fd.Name.Name
			if !fd.Name.IsExported() || facade || bench || (fd.Recv != nil && methodsForInterfaces[name]) {
				continue
			}
			if _, ok := exportsWithoutCallers[f.Name.Name+"."+name]; ok {
				continue
			}
			exports = append(exports, export{name, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, e := range exports {
		if !used[e.name] {
			orphans = append(orphans, e.at+": "+e.name)
		}
	}
	slices.Sort(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no non-test caller: delete it, unexport it, or give it a reason in exportsWithoutCallers", o)
	}
}
