// Package lockhold flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held — the deadlock class behind PR 1's
// failover/health-tracker fix: a mutex held across an RPC call or channel
// wait stalls every other goroutine that needs the lock, turning one slow
// server into a frozen client.
//
// The analysis is intra-procedural and syntactic over the statement list:
// a call to (*sync.Mutex).Lock / (*sync.RWMutex).Lock / RLock marks the
// receiver expression as held until the matching Unlock on the same
// statement path; a deferred Unlock holds the lock to the end of the
// function. While any lock is held, the analyzer reports channel sends and
// receives, selects with no default clause, time.Sleep,
// (*sync.WaitGroup).Wait, and calls in the configured Blocking list
// (typically the RPC client's exchange methods). sync.Cond.Wait is
// exempt: it is specified to be called with the lock held.
//
// Function literals are not descended into — they usually run on another
// goroutine that does not hold the caller's locks.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"spectra/internal/lint/analysis"
)

// Config tunes the analyzer.
type Config struct {
	// Blocking lists extra functions (types.Func.FullName form, e.g.
	// "(*spectra/internal/rpc.Client).CallContext" or "net.Dial") to treat as
	// blocking in addition to the built-in set.
	Blocking []string
}

// builtinBlocking are always treated as blocking calls.
var builtinBlocking = []string{
	"time.Sleep",
	"(*sync.WaitGroup).Wait",
}

// lock method full names, mapped to whether the call acquires (true) or
// releases (false).
var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":     true,
	"(*sync.Mutex).Unlock":   false,
	"(*sync.RWMutex).Lock":   true,
	"(*sync.RWMutex).RLock":  true,
	"(*sync.RWMutex).Unlock": false,
	// RUnlock releases; TryLock is ignored (its result gates an if).
	"(*sync.RWMutex).RUnlock": false,
}

// New returns the analyzer.
func New(cfg Config) *analysis.Analyzer {
	blocking := make(map[string]bool)
	for _, name := range builtinBlocking {
		blocking[name] = true
	}
	for _, name := range cfg.Blocking {
		blocking[name] = true
	}
	return &analysis.Analyzer{
		Name: "lockhold",
		Doc: "flags blocking operations (channel ops, selects, sleeps, RPC " +
			"calls) while a sync.Mutex/RWMutex is held; release the lock " +
			"before blocking or annotate with //lint:allow lockhold",
		Run: func(pass *analysis.Pass) error {
			for _, file := range pass.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					w := &walker{pass: pass, blocking: blocking}
					w.stmts(fn.Body.List, map[string]token.Pos{})
				}
			}
			return nil
		},
	}
}

type walker struct {
	pass     *analysis.Pass
	blocking map[string]bool
}

// stmts processes a statement list sequentially, threading the held-lock
// set through it. Branch bodies run on clones: their lock-state effects
// are local (the conservative join keeps the pre-branch state).
func (w *walker) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range list {
		w.stmt(stmt, held)
	}
}

func (w *walker) stmt(stmt ast.Stmt, held map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, acquire, ok := w.lockOp(s.X); ok {
			if acquire {
				held[key] = s.Pos()
			} else {
				delete(held, key)
			}
			return
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end; any other
		// deferred work runs after the function's own statements, so it is
		// not a blocking point on this path.
		return
	case *ast.GoStmt:
		// The spawned goroutine does not hold this goroutine's locks.
		return
	case *ast.SendStmt:
		w.reportBlocked(s.Pos(), "channel send", held)
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, clone(held))
		if s.Else != nil {
			w.stmt(s.Else, clone(held))
		}
	case *ast.ForStmt:
		inner := clone(held)
		if s.Init != nil {
			w.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			w.expr(s.Cond, inner)
		}
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmts(s.Body.List, clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, held)
				}
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.SelectStmt:
		if len(held) > 0 && !hasDefault(s) {
			w.reportBlocked(s.Pos(), "select with no default clause", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	}
}

// expr scans an expression for blocking operations, skipping function
// literals.
func (w *walker) expr(e ast.Expr, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportBlocked(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			f := w.pass.FuncFor(n.Fun)
			if name := analysis.FullName(f); name != "" && w.blocking[name] {
				w.reportBlocked(n.Pos(), name, held)
			}
		}
		return true
	})
}

// lockOp recognizes a statement-level mutex acquire/release call and
// returns a key identifying the lock (the rendered receiver expression).
func (w *walker) lockOp(e ast.Expr) (key string, acquire, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	f := w.pass.FuncFor(sel)
	acq, isLock := lockMethods[analysis.FullName(f)]
	if !isLock {
		return "", false, false
	}
	return types.ExprString(sel.X), acq, true
}

func (w *walker) reportBlocked(pos token.Pos, what string, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	for key, lockPos := range held {
		w.pass.Reportf(pos,
			"blocking operation (%s) while %s is locked (acquired at %s); release the lock first",
			what, key, w.pass.Fset.Position(lockPos))
	}
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func clone(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
