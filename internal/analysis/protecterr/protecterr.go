// Package protecterr flags dropped error returns from the SyRep entry
// points where an ignored error is not merely sloppy but wrong-answer
// inducing.
//
// The BDD engine converts node-table overflow into bdd.ErrNodeLimit via
// Manager.Protect; a caller that discards that error treats a resource
// failure as "formula is false" and the synthesis pipeline then emits a
// routing table that silently under-approximates resilience. Likewise a
// dropped error from Verify/Repair/encode entry points turns "could not
// check" into "checked, fine". `go vet` has no such check and errcheck is
// an external dependency, so this analyzer hard-codes the repo's critical
// call list.
//
// Both plain expression statements (`m.Protect(...)`) and blank assignments
// of the error component (`res, _ := verify.Check(...)`) are reported.
package protecterr

import (
	"go/ast"
	"go/types"

	"syrep/internal/analysis"
)

// Analyzer is the protecterr analysis.
var Analyzer = &analysis.Analyzer{
	Name: "protecterr",
	Doc:  "reports discarded errors from Protect, verify, repair and encode/synthesis entry points",
	Run:  run,
}

// methodTargets lists (receiver package, receiver type, method) triples whose
// error result must be consumed.
var methodTargets = []struct{ pkg, typ, name string }{
	{"bdd", "Manager", "Protect"},
	{"routing", "Table", "Set"},
	{"routing", "Table", "PunchHole"},
	{"routing", "Table", "Validate"},
}

// funcTargets maps package name -> function names whose error result must be
// consumed. Identification is by package *name* so analysistest fixtures can
// stub these packages under short import paths.
var funcTargets = map[string]map[string]bool{
	"verify":     {"Check": true, "MaxResilience": true},
	"encode":     {"Solve": true, "Enumerate": true, "BuildSymbolic": true},
	"synth":      {"Baseline": true, "Holes": true},
	"repair":     {"Repair": true},
	"resilience": {"Synthesize": true, "Repair": true},
	"syrep":      {"Synthesize": true, "Repair": true, "Verify": true, "MaxResilience": true},
	"heuristic": {
		"Generate": true, "Generate1Resilient": true, "GenerateWithInfo": true,
	},
	"reduce": {"Apply": true},
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, ok := targetCall(pass, call); ok && returnsError(pass, call) {
						pass.Reportf(call.Pos(),
							"result of %s dropped; an ignored error here turns a resource or verification failure into a wrong answer",
							name)
					}
				}
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.GoStmt:
				if name, ok := targetCall(pass, n.Call); ok && returnsError(pass, n.Call) {
					pass.Reportf(n.Call.Pos(),
						"result of %s dropped by go statement; run it synchronously or collect the error", name)
				}
			case *ast.DeferStmt:
				if name, ok := targetCall(pass, n.Call); ok && returnsError(pass, n.Call) {
					pass.Reportf(n.Call.Pos(),
						"result of %s dropped by defer; wrap it in a closure that records the error", name)
				}
			}
			return true
		})
	}
	return nil
}

// checkAssign flags `_ = target(...)` and multi-value forms whose error
// component lands in the blank identifier, e.g. `v, _ := verify.Check(...)`.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	// Only the single-call form can discard an error positionally.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := targetCall(pass, call)
	if !ok {
		return
	}
	results := resultTypes(pass, call)
	for i, lhs := range as.Lhs {
		id, isIdent := lhs.(*ast.Ident)
		if !isIdent || id.Name != "_" {
			continue
		}
		if i < len(results) && isErrorType(results[i]) {
			pass.Reportf(as.Pos(),
				"error result of %s assigned to blank identifier; handle it — a dropped bdd.ErrNodeLimit or verification failure corrupts downstream results",
				name)
			return
		}
	}
}

// targetCall reports whether call is one of the critical entry points and
// returns a display name for diagnostics.
func targetCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	for _, t := range methodTargets {
		if pass.MethodCallOn(call, t.pkg, t.typ, t.name) {
			return t.typ + "." + t.name, true
		}
	}
	if pkg, name, ok := pass.PackageFuncCall(call); ok {
		if names, ok := funcTargets[pkg]; ok && names[name] {
			return pkg + "." + name, true
		}
	}
	return "", false
}

// returnsError reports whether the call has at least one error-typed result.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, t := range resultTypes(pass, call) {
		if isErrorType(t) {
			return true
		}
	}
	return false
}

func resultTypes(pass *analysis.Pass, call *ast.CallExpr) []types.Type {
	t := pass.TypeOf(call)
	if t == nil {
		return nil
	}
	if tuple, ok := t.(*types.Tuple); ok {
		out := make([]types.Type, tuple.Len())
		for i := 0; i < tuple.Len(); i++ {
			out[i] = tuple.At(i).Type()
		}
		return out
	}
	return []types.Type{t}
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return t.String() == "error"
}
