// Package rpcstub is the ctxflow golden dependency: it declares the sink
// method (CallContext) and an exported helper whose network-reachability
// must cross the package boundary as a fact.
package rpcstub

import "context"

// Conn stands in for the RPC client.
type Conn struct{}

// CallContext is the context-threading exchange primitive (a sink).
func (c *Conn) CallContext(ctx context.Context, op string) error {
	_ = ctx
	_ = op
	return nil
}

// Exchange reaches the sink one hop out; importers must learn that from
// the exported fact, not from the sink list.
func Exchange(ctx context.Context, c *Conn, op string) error {
	return c.CallContext(ctx, op)
}
