// Package a is a golden fixture exercising nosharedref against the
// real internal/core and internal/msg APIs.
package a

import (
	"vampos/internal/core"
	"vampos/internal/msg"
)

// bad smuggles references into msg.Args payloads.
func bad(ctx *core.Ctx) {
	x := 7
	m := map[string]int{"k": 1}
	ch := make(chan int)
	f := func() {}
	is := []int{1, 2}
	_, _ = ctx.Call("vfs", "open", &x)              // want `pointer \(\*int\) placed into msg\.Args`
	_, _ = ctx.Call("vfs", "open", m)               // want `map \(map\[string\]int\)`
	_, _ = ctx.Call("vfs", "open", ch)              // want `channel`
	_, _ = ctx.Call("vfs", "open", f)               // want `function value`
	_, _ = ctx.Call("vfs", "open", is)              // want `slice \(\[\]int\)`
	_ = msg.Args{&x}                                // want `pointer`
	_ = ctx.Runtime().Inject(ctx, "vfs", "irq", ch) // want `channel`
}

// good passes only codec-copied values.
func good(ctx *core.Ctx) {
	payload := []byte("copied by the codec")
	_, _ = ctx.Call("vfs", "write", 3, int64(9), uint64(1), "path", payload, 3.14, true, nil)
	_ = msg.Args{42, "ok", []byte{1, 2}}
}

// forwarded args arrive as any; their construction site is where the
// element check applied, so forwarding stays silent.
func forwarded(ctx *core.Ctx, args msg.Args) {
	_, _ = ctx.Call("vfs", "write", args...)
}

// handler returns a reference out of a core.Handler body.
var handler core.Handler = func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	p := new(int)
	return ctx.Ret(p) // want `pointer \(\*int\)`
}

// mapResult returns a map among its results.
var mapResult core.Handler = func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	counts := map[string]int{"open": 1}
	return ctx.Ret(len(counts), counts) // want `map \(map\[string\]int\)`
}

// goodResult returns values the codec copies.
var goodResult core.Handler = func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	return ctx.Ret(3, "fd", []byte("copied"))
}

// annotated is a justified reference payload (it never crosses a real
// domain wall in this fixture).
func annotated(ctx *core.Ctx) {
	y := 1
	//vampos:allow nosharedref -- fixture: pointer payload justified for this golden test
	_, _ = ctx.Call("vfs", "open", &y)
}
