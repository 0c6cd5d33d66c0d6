// Package ctxflow enforces deadline propagation on Spectra's request
// paths: the tail-latency guarantees of the deadline/hedging/multiplexing
// work hold only if every remote exchange runs inside the operation's
// budget, and a single context.Background() anywhere on the path silently
// detaches everything downstream of it from that budget — failover rungs
// and parallel branches then run unbounded, exactly the escapes this
// analyzer was built to catch.
//
// The analysis is interprocedural. A function "reaches the network" when
// one of the configured sink calls (the RPC exchange primitives, by
// types.Func.FullName — concrete methods and the runtime interfaces both)
// is reachable from it through the package call graph; reachability
// crosses package boundaries via object facts exported in dependency
// order. Within the configured request-path packages, one rule applies to
// every network-reaching function: no fresh roots. Calls to
// context.Background / context.TODO are forbidden; a sanctioned budget root
// (the one place an operation's latency budget becomes a context) is
// annotated //lint:allow ctxflow. Dropping a received context at the last
// hop needs no rule of its own when every sink takes a context, as all of
// Spectra's do: there is no no-context variant to call.
//
// Soundness limits: calls through function values produce no edge, and
// interface calls resolve to the interface method (name the interface
// methods as sinks, as the default Spectra configuration does). A helper
// that wraps context.Background and is called from a request path is not
// flagged (the helper itself does not reach a sink) — that is deliberate:
// it forces fresh roots out of request functions into named, reviewable
// root helpers.
package ctxflow

import (
	"go/ast"
	"go/types"

	"spectra/internal/lint/analysis"
	"spectra/internal/lint/callgraph"
)

// Config tunes the analyzer.
type Config struct {
	// RequestPkgs are the import paths whose functions are subject to the
	// rules. Facts are exported from every package regardless, so
	// reachability flows through intermediate packages.
	RequestPkgs []string
	// Sinks are the RPC exchange primitives (types.Func.FullName form):
	// concrete client/pool methods and the runtime interface methods that
	// dispatch to them.
	Sinks []string
}

// reachesFact marks a function from which a configured sink is reachable;
// Sink records one witness for diagnostics.
type reachesFact struct {
	Sink string
}

// rootFuncs are the forbidden fresh-context constructors.
var rootFuncs = map[string]bool{
	"context.Background": true,
	"context.TODO":       true,
}

// New returns the analyzer.
func New(cfg Config) *analysis.Analyzer {
	sinks := make(map[string]bool, len(cfg.Sinks))
	for _, s := range cfg.Sinks {
		sinks[s] = true
	}
	request := make(map[string]bool, len(cfg.RequestPkgs))
	for _, p := range cfg.RequestPkgs {
		request[p] = true
	}
	return &analysis.Analyzer{
		Name: "ctxflow",
		Doc: "request-path functions that reach an RPC sink must not mint " +
			"fresh contexts (context.Background/TODO); thread the caller's " +
			"ctx so deadlines propagate end to end",
		Run: func(pass *analysis.Pass) error {
			g := callgraph.Build(pass)
			reach := computeReach(pass, g, sinks)

			// Export facts for every network-reaching declared function so
			// dependent packages see through this one.
			for fn, sink := range reach {
				pass.ExportObjectFact(fn, &reachesFact{Sink: sink})
			}

			if !request[pass.Pkg.Path()] {
				return nil
			}
			for _, node := range g.Nodes() {
				if sink, onPath := reach[node.Func]; onPath {
					checkFreshRoots(pass, node, sink)
				}
			}
			return nil
		},
	}
}

// computeReach finds which declared functions reach a sink, with one
// witness sink name each: a fixpoint over the package call graph seeded by
// the sink list and by facts imported from dependency packages.
func computeReach(pass *analysis.Pass, g *callgraph.Graph, sinks map[string]bool) map[*types.Func]string {
	reach := make(map[*types.Func]string)
	// external answers sink-ness for callees not declared in this package.
	external := func(f *types.Func) (string, bool) {
		if name := analysis.FullName(f); sinks[name] {
			return name, true
		}
		var fact reachesFact
		if pass.ImportObjectFact(f, &fact) {
			return fact.Sink, true
		}
		return "", false
	}
	// Seed declared functions that are themselves sinks (the rule still
	// applies to their bodies).
	for _, n := range g.Nodes() {
		if name := analysis.FullName(n.Func); sinks[name] {
			reach[n.Func] = name
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			if _, done := reach[n.Func]; done {
				continue
			}
			for _, e := range n.Calls {
				if callee, declared := e.Callee, g.Node(e.Callee); declared != nil {
					if sink, ok := reach[callee]; ok {
						reach[n.Func] = sink
						changed = true
						break
					}
				} else if sink, ok := external(e.Callee); ok {
					reach[n.Func] = sink
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// checkFreshRoots reports context.Background/TODO calls anywhere in the
// function body, nested literals included.
func checkFreshRoots(pass *analysis.Pass, node *callgraph.Node, sink string) {
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := analysis.FullName(pass.FuncFor(call.Fun))
		if rootFuncs[name] {
			pass.Reportf(call.Pos(),
				"%s mints a fresh context with %s on a request path that reaches %s; thread the caller's ctx so the operation budget propagates (annotate sanctioned budget roots with //lint:allow ctxflow)",
				node.Func.Name(), name, sink)
		}
		return true
	})
}
