// Package a is a golden fixture exercising interposeonly against the
// real internal/core API.
package a

import (
	"vampos/internal/core"
	"vampos/internal/msg"
)

// comp implements core.Component.
type comp struct{}

func (comp) Describe() core.Descriptor        { return core.Descriptor{Name: "fixture"} }
func (comp) Init(*core.Ctx) error             { return nil }
func (comp) Exports() map[string]core.Handler { return nil }

// bad bypasses the interposition layer.
func bad(ctx *core.Ctx, h core.Handler) {
	_, _ = h(ctx, msg.Encoded{}) // want `direct core\.Handler invocation`
	var c comp
	_ = c.Init(ctx) // want `direct Init call on a core\.Component`
	_ = c.Exports() // want `direct Exports call on a core\.Component`
	exports := map[string]core.Handler{"read": h}
	_, _ = exports["read"](ctx, nil) // want `direct core\.Handler invocation`
}

// good goes through the runtime (logged) or touches only constant
// metadata.
func good(ctx *core.Ctx) {
	var c comp
	_ = c.Describe() // constant metadata: allowed
	_, _ = ctx.Call("fixture", "read", 1)
}

// annotated is a justified direct invocation.
func annotated(ctx *core.Ctx, h core.Handler) {
	//vampos:allow interposeonly -- fixture: direct invocation justified for this golden test
	_, _ = h(ctx, nil)
}
