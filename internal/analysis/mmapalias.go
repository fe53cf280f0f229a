package analysis

import (
	"go/ast"
	"go/types"
)

// MmapAlias guards the flat-index aliasing contract: slices and strings
// built over a flat-opened searcher's mmap'd sections (unsafe.Slice /
// unsafe.String views, format.go's generic view) die with Close —
// the mapping is unmapped and every surviving alias is a fault waiting
// for a page access. Such views may live in the struct that owns the
// mapping (it has the Close), but storing one into a package-level
// variable, or into a field of a type with no Close method, lets the
// alias outlive its mapping.
//
// Detection is intra-package and syntactic at the store site: the
// analyzer computes the package's alias-producing functions (those whose
// return values derive from unsafe.Slice/unsafe.String over a parameter
// or receiver, transitively), then flags assignments of their results —
// or of direct unsafe.Slice/unsafe.String calls — into package-level
// variables or into fields of non-owning types. A type that legitimately
// holds views on behalf of an owner with the Close (e.g. the per-segment
// and per-shard structs inside index.Searcher) is marked //wwt:mmap-owner
// on its declaration line.
var MmapAlias = &Analyzer{
	Name: "mmapalias",
	Doc: "flag mmap-aliased slices stored where they outlive Close\n\n" +
		"Views over flat-index sections (unsafe.Slice/unsafe.String and the " +
		"generic view) are invalidated by Close. Keep them in the type " +
		"that owns the mapping: package-level variables and fields of types " +
		"without a Close method (and without a //wwt:mmap-owner mark) are " +
		"flagged.",
	Run: runMmapAlias,
}

func runMmapAlias(pass *Pass) error {
	aliasFns := pass.aliasProducers()

	// isAliasCall reports whether e is a call producing an unsafe view:
	// directly via unsafe.Slice/String or through an alias-producing
	// function of this package.
	isAliasCall := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		if isUnsafeView(pass.TypesInfo, call) {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		return fn != nil && aliasFns[fn]
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				// Package-level `var x = view[int32](...)`.
				for i, v := range n.Values {
					if i < len(n.Names) && isAliasCall(v) {
						pass.checkAliasStore(n.Names[i], v)
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						if isAliasCall(n.Rhs[i]) {
							pass.checkAliasStore(n.Lhs[i], n.Rhs[i])
						}
					}
				} else if len(n.Rhs) == 1 && isAliasCall(n.Rhs[0]) {
					// x, err := viewish(...): any result may be the view.
					for _, lhs := range n.Lhs {
						pass.checkAliasStore(lhs, n.Rhs[0])
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkAliasStore flags lhs when it is a package-level variable or a
// field of a type that neither has a Close method nor carries the
// //wwt:mmap-owner mark.
func (pass *Pass) checkAliasStore(lhs, rhs ast.Expr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		// lhs of := and var declarations has its type on the object, not
		// in Types.
		obj := pass.TypesInfo.ObjectOf(l)
		if obj == nil || !isViewType(obj.Type()) || obj.Parent() != pass.Pkg.Scope() {
			return
		}
		pass.Reportf(rhs.Pos(),
			"mmap-aliased %s stored in package-level var %s outlives the mapping's Close; copy it or keep it in the owning struct",
			viewKind(obj.Type()), l.Name)
	case *ast.SelectorExpr:
		tv, ok := pass.TypesInfo.Types[lhs]
		if !ok || !isViewType(tv.Type) {
			return
		}
		base, ok2 := pass.TypesInfo.Types[l.X]
		if !ok2 {
			return
		}
		owner := named(base.Type)
		if owner == nil || pass.typeOwnsMapping(owner) {
			return
		}
		pass.Reportf(rhs.Pos(),
			"mmap-aliased %s stored in field %s of %s, which has no Close and no //wwt:mmap-owner mark; the view can outlive the mapping",
			viewKind(tv.Type), l.Sel.Name, owner.Obj().Name())
	}
}

// viewKind names the stored view shape for the diagnostic.
func viewKind(t types.Type) string {
	if t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			return "string"
		}
	}
	return "slice"
}

// typeOwnsMapping reports whether the named type may legitimately hold
// mmap views: it has a Close method (the unmap point), or its in-package
// declaration is marked //wwt:mmap-owner.
func (pass *Pass) typeOwnsMapping(n *types.Named) bool {
	if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, pass.Pkg, "Close"); obj != nil {
		if _, isFn := obj.(*types.Func); isFn {
			return true
		}
	}
	if n.Obj().Pkg() == pass.Pkg {
		return pass.HasDirective(n.Obj().Pos(), "mmap-owner")
	}
	return false
}

// aliasProducers computes the package's alias-producing functions: the
// fixpoint of "returns unsafe.Slice/unsafe.String over a parameter or
// receiver" through "returns a call to a known alias producer".
func (pass *Pass) aliasProducers() map[*types.Func]bool {
	type fnBody struct {
		fn   *types.Func
		body *ast.BlockStmt
		self map[types.Object]bool // params + receiver
	}
	var fns []fnBody
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			self := make(map[types.Object]bool)
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				self[sig.Params().At(i)] = true
			}
			if r := sig.Recv(); r != nil {
				self[r] = true
			}
			fns = append(fns, fnBody{fn, fd.Body, self})
		}
	}

	alias := make(map[*types.Func]bool)
	// Base case: a return statement contains unsafe.Slice/unsafe.String
	// applied over a parameter or the receiver.
	for _, f := range fns {
		if pass.returnsMatching(f.body, func(call *ast.CallExpr) bool {
			if !isUnsafeView(pass.TypesInfo, call) {
				return false
			}
			derived := false
			ast.Inspect(call, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && f.self[pass.TypesInfo.ObjectOf(id)] {
					derived = true
				}
				return !derived
			})
			return derived
		}) {
			alias[f.fn] = true
		}
	}
	// Fixpoint: returning a call to a known producer makes a producer.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if alias[f.fn] {
				continue
			}
			if pass.returnsMatching(f.body, func(call *ast.CallExpr) bool {
				fn := calleeFunc(pass.TypesInfo, call)
				return fn != nil && alias[fn]
			}) {
				alias[f.fn] = true
				changed = true
			}
		}
	}
	return alias
}

// returnsMatching reports whether any return statement in body contains
// a call matching pred (function literals excluded — their returns are
// not this function's).
func (pass *Pass) returnsMatching(body *ast.BlockStmt, pred func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(inner ast.Node) bool {
				if call, ok := inner.(*ast.CallExpr); ok && pred(call) {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}

// isUnsafeView reports whether call is unsafe.Slice or unsafe.String.
func isUnsafeView(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "unsafe" {
		return false
	}
	return obj.Name() == "Slice" || obj.Name() == "String"
}

// isViewType reports whether t is a slice or string — the shapes an
// unsafe view takes.
func isViewType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}
