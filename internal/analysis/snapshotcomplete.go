package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// SnapshotComplete verifies checkpoint coverage: for every type that
// participates in the checkpoint layer — it has a Sync method, the one
// codec method that both writes and reads its section — every struct field
// must be referenced in Sync, directly or through same-type helper
// methods, and at least once outside a branch on the codec's direction
// (an if whose condition calls Loading). A field the method never touches
// drifts out of the checkpoint the moment the struct grows it; a field
// touched only under a direction branch is written by one direction and
// not read back by the other, or read without being written — the class
// of bug that silently breaks crash-consistent restore (see CHECKPOINT.md).
var SnapshotComplete = &Analyzer{
	Name: "snapshotcomplete",
	Doc: `verify every field of a Sync type is covered by its codec method

A type with a Sync method is part of the checkpoint contract: its entire
mutable state must round-trip through its section, and one method names
each field once for both directions. The analyzer enumerates the type's
struct fields with go/types and requires each one to be selected somewhere
in the body of Sync (helper methods on the same type are followed; passing
the whole receiver to an encoder counts as covering every field), and at
least once outside a direction branch: the body or else of an if whose
condition calls Loading, or the rest of a block after an if on Loading
whose body ends in return. Fields that are configuration, derived indexes
rebuilt on restore, or wiring re-established by the caller are annotated
//detlint:ignore snapshotcomplete <reason> on the field line; a directive on
the type declaration line exempts the whole type.`,
	Run: runSnapshotComplete,
}

func runSnapshotComplete(pass *Pass) error {
	methods := methodDecls(pass)
	typeNames := make([]string, 0, len(methods))
	for name := range methods {
		typeNames = append(typeNames, name)
	}
	sort.Strings(typeNames)
	for _, typeName := range typeNames {
		sync := methods[typeName]["Sync"]
		if sync == nil {
			continue
		}
		obj := pass.Pkg.Scope().Lookup(typeName)
		if obj == nil {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || st.NumFields() == 0 {
			continue
		}
		if pass.Ignored(obj.Pos()) {
			continue // type-level exemption on the declaration line
		}
		cov := coveredFields(pass, named, sync, methods[typeName])
		if cov == nil {
			continue // the whole receiver escaped: everything is covered
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || cov[i] == covOutside {
				continue
			}
			if cov[i] == covBranch {
				pass.Reportf(f.Pos(), "field %s.%s is referenced in Sync only under a branch on the codec's direction: one direction may write what the other never reads — sync it outside the branch, or annotate //detlint:ignore snapshotcomplete <reason> if it is rebuilt on restore", typeName, f.Name())
				continue
			}
			pass.Reportf(f.Pos(), "field %s.%s is not referenced in Sync: checkpoint state may drift — persist it, or annotate //detlint:ignore snapshotcomplete <reason> if it is configuration or rebuilt on restore", typeName, f.Name())
		}
	}
	return nil
}

// Field coverage levels, in increasing order.
const (
	covNone    = iota
	covBranch  // referenced only under a direction branch
	covOutside // referenced outside every direction branch
)

// methodDecls indexes the package's method declarations by receiver type
// name then method name.
func methodDecls(pass *Pass) map[string]map[string]*ast.FuncDecl {
	out := map[string]map[string]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			name := receiverTypeName(fd.Recv.List[0].Type)
			if name == "" {
				continue
			}
			if out[name] == nil {
				out[name] = map[string]*ast.FuncDecl{}
			}
			out[name][fd.Name.Name] = fd
		}
	}
	return out
}

// receiverTypeName unwraps a method receiver type expression to its name.
func receiverTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr: // generic receiver
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// coveredFields returns the coverage level of each top-level field of
// named within fn's body, following calls to other methods of the same
// type (a helper called under a direction branch covers its fields under
// that branch). A nil result means "everything covered": the whole
// receiver escaped (passed to an encoder, copied with *t = s, returned),
// so field-level accounting is impossible and the method is taken to
// cover all state.
func coveredFields(pass *Pass, named *types.Named, fn *ast.FuncDecl, siblings map[string]*ast.FuncDecl) map[int]int {
	covered := map[int]int{}
	type visit struct {
		fd       *ast.FuncDecl
		inBranch bool
	}
	visited := map[visit]bool{}
	escaped := false
	var visitFunc func(fd *ast.FuncDecl, inBranch bool)
	var walk func(n ast.Node, inBranch bool)
	walk = func(n ast.Node, inBranch bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				rest := inBranch
				for _, stmt := range n.List {
					walk(stmt, rest)
					if ifs, ok := stmt.(*ast.IfStmt); ok && ifs.Else == nil && directionCond(ifs.Cond) && endsInReturn(ifs.Body) {
						rest = true // the rest of the block runs in one direction only
					}
				}
				return false
			case *ast.IfStmt:
				if inBranch || !directionCond(n.Cond) {
					return true
				}
				if n.Init != nil {
					walk(n.Init, false)
				}
				walk(n.Cond, false)
				walk(n.Body, true)
				if n.Else != nil {
					walk(n.Else, true)
				}
				return false
			case *ast.SelectorExpr:
				sel := pass.TypesInfo.Selections[n]
				if sel == nil || !sameNamed(sel.Recv(), named) {
					return true
				}
				// A field selection, or a method promoted through an
				// embedded field, selects the field its path starts with.
				if sel.Kind() == types.FieldVal || len(sel.Index()) > 1 {
					level := covOutside
					if inBranch {
						level = covBranch
					}
					if k := sel.Index()[0]; covered[k] < level {
						covered[k] = level
					}
				}
				// Follow helper methods on the same type.
				if sel.Kind() == types.MethodVal {
					if callee := siblings[n.Sel.Name]; callee != nil {
						visitFunc(callee, inBranch)
					}
				}
			}
			return true
		})
	}
	visitFunc = func(fd *ast.FuncDecl, inBranch bool) {
		if visited[visit{fd, inBranch}] || fd.Body == nil {
			return
		}
		visited[visit{fd, inBranch}] = true
		if receiverEscapes(pass, fd, receiverObj(pass, fd)) {
			escaped = true // whole receiver handed off: all fields covered
			return
		}
		walk(fd.Body, inBranch)
	}
	visitFunc(fn, false)
	if escaped {
		return nil
	}
	return covered
}

// directionCond reports whether an if condition branches on the codec's
// direction: it calls a method named Loading.
func directionCond(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Loading" && len(call.Args) == 0 {
				found = true
			}
		}
		return !found
	})
	return found
}

// endsInReturn reports whether a block's last statement is a return.
func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// receiverObj returns the object of fn's receiver variable (nil if unnamed).
func receiverObj(pass *Pass, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
}

// receiverEscapes reports whether the receiver is used as a whole value —
// anywhere other than as the base of a field/method selection — e.g.
// enc.Encode(t), *t = tmp, return *t. Such methods cover all fields.
func receiverEscapes(pass *Pass, fn *ast.FuncDecl, recv types.Object) bool {
	if recv == nil || fn.Body == nil {
		return false
	}
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	escaped := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
			p := parents[id]
			for {
				if pe, ok := p.(*ast.ParenExpr); ok {
					_ = pe
					p = parents[p]
					continue
				}
				break
			}
			// Deref (*t) and address (&t) still count as a whole-value use
			// unless the result is immediately selected from.
			if star, ok := p.(*ast.StarExpr); ok {
				p2 := parents[star]
				if sel, ok := p2.(*ast.SelectorExpr); ok && sel.X == star {
					return true
				}
			}
			if sel, ok := p.(*ast.SelectorExpr); ok && sel.X == id {
				return true // t.field or t.method(...): a selection, not an escape
			}
			escaped = true
		}
		return true
	})
	return escaped
}

// sameNamed reports whether t (possibly a pointer) is the named type n.
func sameNamed(t types.Type, n *types.Named) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	got, ok := t.(*types.Named)
	return ok && got.Obj() == n.Obj()
}
