package planner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// allowedImports is the planner's complete import budget. Everything
// here is side-effect free: no package on this list can reach the
// filesystem, the network, or a clock. Adding an import to the planner
// means consciously extending this list — and defending the purity
// argument in review.
var allowedImports = map[string]bool{
	"fmt":     true,
	"sort":    true,
	"strings": true,
	"time":    true, // Duration arithmetic only; time.Now et al. banned below
}

// bannedTimeFuncs are the clock-reading (or goroutine-spawning)
// identifiers of package time. time.Duration values flow through the
// planner freely, but the current time must always arrive as an input.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// TestPlannerIsPure enforces the package contract mechanically: the
// planner's non-test sources may import only the allowlist above and
// may never call a clock. This is what makes "every scenario is a
// table-driven test" a property rather than a hope.
func TestPlannerIsPure(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		checked++
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !allowedImports[path] {
				t.Errorf("%s imports %q, which is outside the planner's purity allowlist", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkg.Name == "time" && bannedTimeFuncs[sel.Sel.Name] {
				t.Errorf("%s:%v: time.%s reads a clock; the planner must take time as an input",
					name, fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no planner sources found — test running in the wrong directory?")
	}
}
