package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// CounterFlow enforces the counter→report pipeline: every monotone counter a
// simulated subsystem increments must flow into the report package's Take
// snapshot. A counter that never reaches Take reports zeros for every
// measurement window, forever, silently. Windowing is not checked here:
// report.Delta and report.Merge are one reflective walk over every snapshot
// leaf, so a captured counter is differenced by construction (and
// TestMergeMirrorsDelta fails on a field the walk cannot fold).
var CounterFlow = &Analyzer{
	Name: "counterflow",
	Doc: `require every monotone subsystem counter to reach report.Take

A monotone counter is a uint64 (or [N]uint64) struct field that some function
in a counted subsystem package (kernel, mem, cache, tlb, netsim, faults — or
any package defining its own Take) increments with ++ or += and
never decrements or plainly reassigns outside New*/Load*/Reset* functions.
Each such counter must be read by some function reachable from the report
sink's Take (directly, or through an accessor method Take calls), and every
top-level field of the snapshot type Take returns must be referenced in Take.
Counters that are deliberately internal carry
//detlint:ignore counterflow <reason> on their field declaration.`,
	RunSuite: runCounterFlow,
}

// counterScopePkgs are the package-name bases whose counters must be
// reported.
var counterScopePkgs = map[string]bool{
	"kernel": true, "mem": true, "cache": true,
	"tlb": true, "netsim": true, "faults": true,
}

// counterSink is one report-shaped package: a package-level Take returning a
// struct.
type counterSink struct {
	pkg     *Package
	take    *ast.FuncDecl
	takeObj *types.Func
	snap    *types.Named // Take's result type
}

func runCounterFlow(pass *SuitePass) error {
	sinks := findCounterSinks(pass.Suite)
	if len(sinks) == 0 {
		return nil // nothing to flow into (e.g. detlint -only over one package)
	}
	g := pass.Suite.Graph()

	// Everything reachable from any sink's Take captures counters by reading
	// their fields.
	var roots []*FuncNode
	for _, s := range sinks {
		if n := g.Funcs[funcKey(s.takeObj)]; n != nil {
			roots = append(roots, n)
		}
	}
	captured := map[string]bool{}
	parent := g.ReachableFrom(roots)
	for _, key := range g.Order {
		if _, ok := parent[key]; !ok {
			continue
		}
		node := g.Funcs[key]
		if node.Decl.Body == nil {
			continue
		}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s := node.Pkg.Info.Selections[sel]; s != nil {
				if k, ok := fieldKeyOf(s); ok {
					captured[k] = true
				}
			}
			return true
		})
	}

	for _, pkg := range pass.Suite.Pkgs {
		if !counterScoped(pkg, sinks) {
			continue
		}
		for _, c := range monotoneCounters(pkg) {
			if captured[c.key] {
				continue
			}
			if pass.Ignored(pkg.Fset, c.declPos) {
				continue
			}
			pass.Reportf(pkg.Fset, c.declPos,
				"monotone counter %s is incremented at %s but never read on any path from report Take; wire it into the snapshot or annotate //detlint:ignore counterflow <reason>",
				c.name, pkg.Fset.Position(c.incPos))
		}
	}

	for _, s := range sinks {
		checkSnapshotFieldFlow(pass, s)
	}
	return nil
}

// findCounterSinks locates packages declaring a package-level Take returning
// a named struct.
func findCounterSinks(s *Suite) []*counterSink {
	var out []*counterSink
	for _, pkg := range s.Pkgs {
		sink := &counterSink{pkg: pkg}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "Take" {
					sink.take = fd
				}
			}
		}
		if sink.take == nil {
			continue
		}
		obj, ok := pkg.Info.Defs[sink.take.Name].(*types.Func)
		if !ok {
			continue
		}
		sig := obj.Type().(*types.Signature)
		if sig.Results().Len() != 1 {
			continue
		}
		named, ok := sig.Results().At(0).Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		sink.takeObj = obj
		sink.snap = named
		out = append(out, sink)
	}
	return out
}

// counterScoped reports whether pkg's counters fall under the contract.
func counterScoped(pkg *Package, sinks []*counterSink) bool {
	if counterScopePkgs[path.Base(pkg.Types.Path())] {
		return true
	}
	for _, s := range sinks {
		if s.pkg == pkg {
			return true
		}
	}
	return false
}

// counter is one monotone counter field of a scoped package.
type counter struct {
	key     string
	name    string // Type.Field for diagnostics
	declPos token.Pos
	incPos  token.Pos // first increment, for diagnostics
}

// monotoneCounters finds pkg's counter fields: uint64 / [N]uint64 fields with
// at least one ++/+= and no decrement or plain reassignment outside
// New*/Load*/Reset* (or init) functions. Results are in deterministic
// (first increment position) order.
func monotoneCounters(pkg *Package) []counter {
	inc := map[string]*counter{}
	disqualified := map[string]bool{}
	note := func(e ast.Expr, isInc, exemptFunc bool) {
		sel, ok := counterSelector(e)
		if !ok {
			return
		}
		s := pkg.Info.Selections[sel]
		if s == nil {
			return
		}
		key, ok := fieldKeyOf(s)
		if !ok || !counterFieldType(s.Obj().Type()) {
			return
		}
		if !isInc {
			if !exemptFunc {
				disqualified[key] = true
			}
			return
		}
		if inc[key] == nil {
			inc[key] = &counter{
				key:     key,
				name:    namedNameOf(s.Recv()) + "." + s.Obj().Name(),
				declPos: s.Obj().Pos(),
				incPos:  e.Pos(),
			}
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			exempt := counterExemptFunc(fd.Name.Name)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IncDecStmt:
					note(n.X, n.Tok == token.INC, exempt)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						switch n.Tok {
						case token.ADD_ASSIGN:
							note(lhs, true, exempt)
						case token.DEFINE:
						default:
							note(lhs, false, exempt)
						}
					}
				}
				return true
			})
		}
	}
	var out []counter
	for _, c := range inc {
		if !disqualified[c.key] {
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].incPos < out[j].incPos })
	return out
}

// counterExemptFunc reports whether writes in a function named name may
// freely assign counter fields (construction, checkpoint load, reset).
func counterExemptFunc(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Load") ||
		strings.HasPrefix(name, "Reset") || name == "init"
}

// counterSelector unwraps index chains (SyscallCount[n]++, Accesses[i]++)
// down to the field selector.
func counterSelector(e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			return x, true
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// counterFieldType reports whether t is uint64 or an array of uint64.
func counterFieldType(t types.Type) bool {
	if a, ok := t.Underlying().(*types.Array); ok {
		t = a.Elem()
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// checkSnapshotFieldFlow requires every top-level field of the sink's
// snapshot struct to be referenced in Take.
func checkSnapshotFieldFlow(pass *SuitePass, s *counterSink) {
	st := s.snap.Underlying().(*types.Struct)
	inTake := fieldsReferenced(s.pkg, s.take)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !inTake[f] && !pass.Ignored(s.pkg.Fset, f.Pos()) {
			pass.Reportf(s.pkg.Fset, f.Pos(), "snapshot field %s.%s is never captured by Take and will always read zero", s.snap.Obj().Name(), f.Name())
		}
	}
}

// fieldsReferenced collects every struct-field object an identifier in fd's
// body resolves to — plain selections and composite-literal keys alike (both
// are recorded in Info.Uses).
func fieldsReferenced(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Body == nil {
		return out
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, ok := pkg.Info.Uses[id].(*types.Var); ok && obj.IsField() {
			out[obj] = true
		}
		return true
	})
	return out
}
