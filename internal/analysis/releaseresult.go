package analysis

import (
	"go/ast"
	"go/types"
)

// ReleaseResult flags Engine.Answer/AnswerCtx call sites whose
// *wwt.Result never reaches Release. An unreleased Result is not a leak —
// the GC reclaims the arena — but it silently defeats the QueryScratch
// pool: every such call site costs a fresh arena allocation per query,
// the regression class the PR 3/PR 4 pooling work exists to prevent.
//
// The analysis is intra-procedural and deliberately forgiving, in the
// lostcancel style: a call site is flagged only when the Result is
// discarded outright (expression statement or assigned to _) or bound to
// a local that is never Released and never escapes the function (not
// returned, stored, sent, or passed along — an escaping Result is some
// other code's responsibility). Call sites that retain the arena on
// purpose — equivalence tests pinning pooled vs fresh, eval's heap-side
// retention — carry a //wwt:retained comment on the call line, which the
// analyzer respects.
var ReleaseResult = &Analyzer{
	Name: "releaseresult",
	Doc: "flag Answer results that never reach Release\n\n" +
		"Engine.Answer/AnswerCtx hand the pooled per-query arena to the " +
		"returned Result; only Result.Release re-pools it. A Result that is " +
		"discarded, or held in a local that neither Releases nor escapes, " +
		"silently falls off the arena pool. Deliberate retention is marked " +
		"//wwt:retained on the call line.",
	Run: runReleaseResult,
}

func runReleaseResult(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				pass.checkReleaseIn(body)
			}
			return true
		})
	}
	return nil
}

// checkReleaseIn examines every Answer-family call directly inside body
// (function literals are their own scope and handled separately).
func (pass *Pass) checkReleaseIn(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n.Pos() != body.Pos() {
			return false
		}
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && pass.isAnswerCall(call) {
				if !pass.HasDirective(call.Pos(), "retained") {
					pass.Reportf(call.Pos(),
						"result of %s is discarded without Release; the pooled arena is lost to the pool (use res.Release, or mark //wwt:retained)",
						answerCallName(call))
				}
				return false
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || !pass.isAnswerCall(call) || len(n.Lhs) == 0 {
				return true
			}
			if pass.HasDirective(call.Pos(), "retained") {
				return true
			}
			resIdent, isIdent := ast.Unparen(n.Lhs[0]).(*ast.Ident)
			if !isIdent {
				// Stored straight into a field or element: escapes.
				return true
			}
			if resIdent.Name == "_" {
				pass.Reportf(call.Pos(),
					"result of %s is assigned to _ without Release; the pooled arena is lost to the pool (use res.Release, or mark //wwt:retained)",
					answerCallName(call))
				return true
			}
			obj := pass.TypesInfo.ObjectOf(resIdent)
			if obj == nil {
				return true
			}
			if !pass.resultReachesRelease(body, obj) {
				pass.Reportf(call.Pos(),
					"result of %s never reaches Release on any path in this function; the pooled arena is lost to the pool (defer %s.Release(), or mark //wwt:retained)",
					answerCallName(call), resIdent.Name)
			}
		}
		return true
	})
}

// resultReachesRelease reports whether obj (a *wwt.Result local) is
// Released somewhere in body, or escapes the function in a way that
// hands responsibility elsewhere: returned, assigned onward, stored in a
// composite, passed as an argument, or sent on a channel.
func (pass *Pass) resultReachesRelease(body *ast.BlockStmt, obj types.Object) bool {
	settled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if settled {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != obj {
			return true
		}
		switch use := pass.identContext(body, id); use {
		case useRelease, useEscape:
			settled = true
		}
		return true
	})
	return settled
}

type useKind int

const (
	useRead useKind = iota
	useRelease
	useEscape
)

// identContext classifies one use of a Result identifier by its
// innermost enclosing expression/statement.
func (pass *Pass) identContext(body *ast.BlockStmt, id *ast.Ident) useKind {
	path := enclosingPath(body, id)
	// path[len-1] == id; walk outward.
	for i := len(path) - 2; i >= 0; i-- {
		switch parent := path[i].(type) {
		case *ast.SelectorExpr:
			if parent.X == path[i+1] && parent.Sel.Name == "Release" {
				return useRelease
			}
			// res.Model, res.Rows(): a read; keep walking? No — any
			// selector other than Release is a read of the result, and
			// enclosing contexts (call args, returns) apply to the
			// selected value, not the Result pointer itself.
			return useRead
		case *ast.CallExpr:
			for _, arg := range parent.Args {
				if arg == path[i+1] {
					return useEscape // passed along: someone else's Release
				}
			}
			return useRead
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr:
			return useEscape
		case *ast.AssignStmt:
			for _, rhs := range parent.Rhs {
				if rhs == path[i+1] {
					return useEscape // re-assigned onward
				}
			}
			return useRead
		case *ast.UnaryExpr, *ast.ParenExpr, *ast.IndexExpr, *ast.StarExpr:
			continue // unwrap and keep classifying
		default:
			return useRead
		}
	}
	return useRead
}

// enclosingPath returns the node path from body down to target
// (inclusive), or nil.
func enclosingPath(body *ast.BlockStmt, target ast.Node) []ast.Node {
	var path, found []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		path = append(path, n)
		if n == target {
			found = append([]ast.Node(nil), path...)
			return false
		}
		return true
	})
	return found
}

// isAnswerCall reports whether call invokes a method named Answer or
// AnswerCtx whose first result is *wwt.Result.
func (pass *Pass) isAnswerCall(call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "Answer" && fn.Name() != "AnswerCtx") {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	return isNamedType(sig.Results().At(0).Type(), "wwt", "Result")
}

// answerCallName renders the callee for diagnostics as written at the
// call site (eng.Answer, r.Engine.AnswerCtx, ...).
func answerCallName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X) + "." + sel.Sel.Name
	}
	return types.ExprString(call.Fun)
}
