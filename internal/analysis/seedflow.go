package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SeedFlow enforces the seed-partition discipline from PR 3: every random
// stream the simulation draws from must derive from the experiment seed
// through a partition stream, with a subsystem-unique derivation, and must
// never be re-seeded after construction. Two subsystems silently sharing a
// stream correlate "independent" randomness; a literal seed decouples a
// subsystem from the -seed flag; both corrupt experiments without failing
// any test.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: `require every rng generator to derive uniquely from the seed partitions

Checked at every call to the internal/rng constructor New: the seed argument
must not be a compile-time constant (a literal seed ignores -seed), must
mention a seed-derived identifier (cfg.Seed, subseed, ...), and must not
repeat another call site's derivation fingerprint — the multiset of constants
mixed into the seed — which is how two subsystems end up on one stream.
Generators must not be re-seeded after construction: assignments to stored
*rng.Rand variables are allowed only inside New*/Restore* functions
(construction and checkpoint restore). internal/rng itself is exempt.
Suppress with //detlint:ignore seedflow <reason>.`,
	RunSuite: runSeedFlow,
}

const rngPkgSuffix = "internal/rng"

// seedSite is one rng.New call site that passed the local rules and takes
// part in the cross-site aliasing check.
type seedSite struct {
	pkg         *Package
	pos         token.Pos
	fingerprint string
}

func runSeedFlow(pass *SuitePass) error {
	var sites []seedSite
	for _, pkg := range pass.Suite.Pkgs {
		if strings.HasSuffix(pkg.Types.Path(), rngPkgSuffix) {
			continue
		}
		for _, file := range pkg.Files {
			funcName := enclosingFuncNames(file)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn := calleeFunc(pkg, n); fn != nil && fn.Name() == "New" && rngPackage(fn.Pkg()) {
						if site, ok := checkSeedArg(pass, pkg, n); ok {
							sites = append(sites, site)
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.ASSIGN {
						return true
					}
					for _, lhs := range n.Lhs {
						sel, ok := unparen(lhs).(*ast.SelectorExpr)
						if !ok || !rngRandType(pkg.Info.TypeOf(sel)) {
							continue
						}
						if s := pkg.Info.Selections[sel]; s == nil || s.Kind() != types.FieldVal {
							continue
						}
						if name := funcName(n.Pos()); !seedExemptFunc(name) {
							pass.Reportf(pkg.Fset, lhs.Pos(), "stored generator %s is replaced outside a New*/Restore* function (%s); streams are fixed at construction", exprText(sel), name)
						}
					}
				}
				return true
			})
		}
	}

	// Aliasing: two sites with the same derivation fingerprint draw the same
	// stream. Sites are compared in deterministic position order.
	sort.Slice(sites, func(i, j int) bool {
		a := sites[i].pkg.Fset.Position(sites[i].pos)
		b := sites[j].pkg.Fset.Position(sites[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	first := map[string]seedSite{}
	for _, s := range sites {
		prev, seen := first[s.fingerprint]
		if !seen {
			first[s.fingerprint] = s
			continue
		}
		pass.Reportf(s.pkg.Fset, s.pos,
			"seed derivation {%s} duplicates the stream created at %s; two subsystems would share one random stream — mix in a distinct constant",
			s.fingerprint, prev.pkg.Fset.Position(prev.pos))
	}
	return nil
}

// checkSeedArg applies the per-site rules to one rng.New call; ok means the
// site is well-formed and should join the aliasing comparison.
func checkSeedArg(pass *SuitePass, pkg *Package, call *ast.CallExpr) (seedSite, bool) {
	if len(call.Args) == 0 {
		return seedSite{}, false
	}
	arg := call.Args[0]
	if tv, ok := pkg.Info.Types[arg]; ok && tv.Value != nil {
		pass.Reportf(pkg.Fset, arg.Pos(), "generator is seeded with the constant %s; derive the seed from a partition stream so -seed reaches this subsystem", tv.Value.String())
		return seedSite{}, false
	}
	if !mentionsSeedIdent(arg) {
		pass.Reportf(pkg.Fset, arg.Pos(), "seed expression %s does not derive from a partition stream (no seed-carrying identifier)", exprText(arg))
		return seedSite{}, false
	}
	return seedSite{pkg: pkg, pos: call.Pos(), fingerprint: constFingerprint(pkg, arg)}, true
}

// mentionsSeedIdent reports whether some identifier in e carries seed-derived
// state (its name contains "seed": cfg.Seed, subseed, seedFor, ...).
func mentionsSeedIdent(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "seed") {
			found = true
		}
		return !found
	})
	return found
}

// constFingerprint renders the multiset of maximal constant subexpressions
// mixed into a seed derivation, e.g. "0x5bec, 32". Two call sites with equal
// fingerprints derive the same stream from the same partitions.
func constFingerprint(pkg *Package, e ast.Expr) string {
	var consts []string
	var walk func(x ast.Expr)
	walk = func(x ast.Expr) {
		x = unparen(x)
		if tv, ok := pkg.Info.Types[x]; ok && tv.Value != nil {
			consts = append(consts, tv.Value.String())
			return
		}
		switch x := x.(type) {
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.CallExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.IndexExpr:
			walk(x.Index)
		}
	}
	walk(e)
	sort.Strings(consts)
	return strings.Join(consts, ", ")
}

// seedExemptFunc reports whether a function may (re)initialize generator
// state: constructors and checkpoint restores.
func seedExemptFunc(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Restore")
}

// rngPackage reports whether p is the internal/rng package.
func rngPackage(p *types.Package) bool {
	return p != nil && strings.HasSuffix(p.Path(), rngPkgSuffix)
}

// rngRandType reports whether t is (a pointer to) a named type declared in
// internal/rng.
func rngRandType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && rngPackage(n.Obj().Pkg())
}

// calleeFunc resolves the static callee of a call, or nil.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// enclosingFuncNames returns a lookup from position to the name of the
// enclosing function declaration ("<file scope>" outside any).
func enclosingFuncNames(file *ast.File) func(token.Pos) string {
	type span struct {
		lo, hi token.Pos
		name   string
	}
	var spans []span
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			spans = append(spans, span{fd.Pos(), fd.End(), fd.Name.Name})
		}
	}
	return func(p token.Pos) string {
		for _, s := range spans {
			if s.lo <= p && p <= s.hi {
				return s.name
			}
		}
		return "<file scope>"
	}
}
