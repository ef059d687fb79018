// Package ctxpoll flags unbounded loops in pipeline packages that never
// consult their context.
//
// The resilience supervisor's anytime guarantees — bounded cancellation
// latency, per-stage budgets, prompt Partial results on timeout — hold only
// if every potentially long-running loop in the synthesis pipeline polls
// ctx.Err() (or delegates to a callee that takes the context). A single
// unpolled loop reintroduces exactly the hang the supervisor exists to
// prevent, and such loops regress silently: nothing fails until an operator
// hits Ctrl-C and nothing happens.
//
// The analyzer inspects the pipeline packages (resilience, encode, verify,
// repair, heuristic, reduce, synth, server, cache, controller, journal) and
// reports `for {}` and `for cond {}` loops — the potentially unbounded shapes — whose condition
// and body neither
//
//   - call Err or Done on a context.Context value, nor
//   - pass a context.Context to any function (delegating the poll),
//
// Three-clause counter loops and range loops are structurally bounded and
// never reported. Loops that are bounded for non-structural reasons (a BFS
// draining a queue of at most |V| nodes, say) are suppressed with
// //syreplint:ignore ctxpoll <reason>.
package ctxpoll

import (
	"go/ast"

	"syrep/internal/analysis"
)

// Analyzer is the ctxpoll analysis.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "reports unbounded loops in pipeline packages that never poll their context",
	Run:  run,
}

// pipelinePackages names (by package name, not import path, so fixtures can
// live under short paths) the packages whose loops run under the anytime
// supervisor's deadlines.
var pipelinePackages = map[string]bool{
	"resilience": true,
	"encode":     true,
	"verify":     true,
	"repair":     true,
	"heuristic":  true,
	"reduce":     true,
	"synth":      true,
	// The synthesis service's workers run supervisor pipelines and drain
	// loops; an unpolled loop there would stall graceful shutdown.
	"server": true,
	// The synthesis cache's singleflight waiters block on in-flight
	// leaders; a wait loop that cannot observe cancellation would pin a
	// worker for the leader's whole run.
	"cache": true,
	// The churn controller's reconcile and pusher loops run for the
	// process lifetime; a loop that cannot observe cancellation would hang
	// the SIGTERM drain.
	"controller": true,
	// The write-ahead journal sits on the controller's event path: its
	// replay and compaction walks run while the controller holds its state
	// lock, so an unbounded loop there stalls event admission.
	"journal": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !pipelinePackages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			// Three-clause loops (for i := 0; i < n; i++) are bounded by
			// construction; range loops are a different node type entirely.
			if loop.Init != nil || loop.Post != nil {
				return true
			}
			if !pollsContext(pass, loop) {
				shape := "for {...}"
				if loop.Cond != nil {
					shape = "for cond {...}"
				}
				pass.Reportf(loop.Pos(),
					"unbounded %s loop never polls a context; check ctx.Err() in the loop (or pass ctx to the work it calls) so cancellation and stage budgets stay bounded",
					shape)
			}
			return true
		})
	}
	return nil
}

// pollsContext reports whether the loop's condition or body consults a
// context: an Err/Done call on a context.Context value, or any call that
// receives a context.Context argument (the callee then owns the poll).
func pollsContext(pass *analysis.Pass, loop *ast.ForStmt) bool {
	found := false
	check := func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContext(pass, sel.X) {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			if isContext(pass, arg) {
				found = true
				return false
			}
		}
		return true
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, check)
	}
	if !found {
		ast.Inspect(loop.Body, check)
	}
	return found
}

// isContext reports whether e's static type is context.Context.
func isContext(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	return t != nil && analysis.IsNamedType(t, "context", "Context")
}
