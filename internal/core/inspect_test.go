package core

import "vampos/internal/trace"

// Runtime helpers only the tests use.

// NewTracer creates a flight recorder on the runtime's virtual clock and
// attaches it.
func (rt *Runtime) NewTracer(name string, opts ...trace.Option) *trace.Recorder {
	r := trace.New(name, rt.clk.Elapsed, opts...)
	rt.SetTracer(r)
	return r
}
