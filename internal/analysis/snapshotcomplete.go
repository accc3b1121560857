package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SnapshotComplete verifies checkpoint coverage: for every type that
// participates in the checkpoint layer — it has the codec pair, a Save
// method and a Load (or Load-prefixed) method — every struct field must be
// referenced in both methods, directly or through same-type helper methods.
// A field that is saved but never loaded, or loaded but never saved, fails
// the same way as one missing from both. This catches checkpoint drift the
// moment a struct grows a field that the section codec does not know
// about: the class of bug that silently breaks crash-consistent restore
// (see CHECKPOINT.md).
var SnapshotComplete = &Analyzer{
	Name: "snapshotcomplete",
	Doc: `verify every field of a Save/Load type is covered by both methods

A type with a Save/Load method pair is part of the checkpoint contract: its
entire mutable state must round-trip through its section. The analyzer
enumerates the type's struct fields with go/types and requires each one to
be selected somewhere in the body of Save and of Load (helper methods on the
same type are followed; passing the whole receiver to an encoder counts as
covering every field). Fields that are configuration, derived indexes
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
		byName := methods[typeName]
		snap := byName["Save"]
		rest := byName["Load"]
		if rest == nil {
			// Accept a Load-prefixed variant; pick the first in name order
			// so the choice is deterministic.
			methodNames := make([]string, 0, len(byName))
			for name := range byName {
				methodNames = append(methodNames, name)
			}
			sort.Strings(methodNames)
			for _, name := range methodNames {
				if strings.HasPrefix(name, "Load") {
					rest = byName[name]
					break
				}
			}
		}
		if snap == nil || rest == nil {
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
		inSnap := coveredFields(pass, named, snap, methods[typeName])
		inRest := coveredFields(pass, named, rest, methods[typeName])
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			missSnap := inSnap != nil && !inSnap[i]
			missRest := inRest != nil && !inRest[i]
			if !missSnap && !missRest {
				continue
			}
			var where string
			switch {
			case missSnap && missRest:
				where = snap.Name.Name + " or " + rest.Name.Name
			case missSnap:
				where = snap.Name.Name
			default:
				where = rest.Name.Name
			}
			pass.Reportf(f.Pos(), "field %s.%s is not referenced in %s: checkpoint state may drift — persist it, or annotate //detlint:ignore snapshotcomplete <reason> if it is configuration or rebuilt on restore", typeName, f.Name(), where)
		}
	}
	return nil
}

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

// coveredFields returns which top-level fields of named are selected within
// fn's body, following calls to other methods of the same type (one common
// pattern splits Restore into per-subsystem helpers). A nil result means
// "everything covered": the whole receiver escaped (passed to an encoder,
// copied with *t = s, returned), so field-level accounting is impossible and
// the method is taken to cover all state.
func coveredFields(pass *Pass, named *types.Named, fn *ast.FuncDecl, siblings map[string]*ast.FuncDecl) map[int]bool {
	covered := map[int]bool{}
	visited := map[*ast.FuncDecl]bool{}
	var visit func(fd *ast.FuncDecl) bool
	visit = func(fd *ast.FuncDecl) bool {
		if visited[fd] {
			return true
		}
		visited[fd] = true
		if fd.Body == nil {
			return true
		}
		recv := receiverObj(pass, fd)
		if receiverEscapes(pass, fd, recv) {
			return false // whole receiver handed off: all fields covered
		}
		ok := true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := pass.TypesInfo.Selections[n]; sel != nil {
					if sameNamed(sel.Recv(), named) && len(sel.Index()) > 0 {
						covered[sel.Index()[0]] = true
					}
					// Follow helper methods on the same type.
					if sel.Kind() == types.MethodVal && sameNamed(sel.Recv(), named) {
						if callee := siblings[n.Sel.Name]; callee != nil {
							if !visit(callee) {
								ok = false
							}
						}
					}
				}
			}
			return true
		})
		return ok
	}
	if !visit(fn) {
		return nil
	}
	return covered
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
