// Package reqpath is the ctxflow golden request-path package: every way a
// caller can detach an exchange from its budget, plus the clean and
// sanctioned shapes.
package reqpath

import (
	"context"

	"spectra/internal/lint/ctxflow/testdata/src/rpcstub"
)

// Fresh mints a root right at the exchange.
func Fresh(c *rpcstub.Conn) error {
	return c.CallContext(context.Background(), "x") // want `Fresh mints a fresh context with context.Background`
}

// FreshTODO is the TODO spelling of the same escape.
func FreshTODO(c *rpcstub.Conn) error {
	return c.CallContext(context.TODO(), "x") // want `FreshTODO mints a fresh context with context.TODO`
}

// helper reaches the sink; Indirect reaches it only through helper.
func helper(c *rpcstub.Conn) error {
	return c.CallContext(context.Background(), "x") // want `helper mints a fresh context`
}

// Indirect itself mints nothing, so only helper is reported.
func Indirect(c *rpcstub.Conn) error { return helper(c) }

// CrossPkg reaches the sink only through rpcstub.Exchange — known via the
// imported fact, not the sink list.
func CrossPkg(c *rpcstub.Conn) error {
	return rpcstub.Exchange(context.Background(), c, "x") // want `CrossPkg mints a fresh context`
}

// Threads is the correct shape.
func Threads(ctx context.Context, c *rpcstub.Conn) error {
	return c.CallContext(ctx, "x")
}

// InGoroutine mints the root inside a spawned literal; the literal's
// calls attribute to the enclosing declaration.
func InGoroutine(c *rpcstub.Conn) {
	go func() {
		_ = c.CallContext(context.Background(), "x") // want `InGoroutine mints a fresh context`
	}()
}

// Unrelated never reaches a sink, so its fresh root is fine.
func Unrelated() context.Context {
	return context.Background()
}

// Sanctioned is an annotated budget root: allowed.
func Sanctioned(c *rpcstub.Conn) error {
	ctx := context.Background() //lint:allow ctxflow golden sanctioned budget root
	return c.CallContext(ctx, "x")
}

// UsesRoot launders the root through Unrelated — the documented soundness
// limit: named root helpers are the reviewable chokepoint, not a finding.
func UsesRoot(c *rpcstub.Conn) error {
	return c.CallContext(Unrelated(), "x")
}
