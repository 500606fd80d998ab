package analysis

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs are the packages whose behaviour must be a pure
// function of inputs and seed: the runtime core, the message layer, the
// scheduler, the campaign engine, the bench harness, the virtual clock
// itself, and every component. A wall-clock read in any of them makes
// campaign matrices differ across -parallel settings and breaks
// byte-identical replay.
var deterministicPkgs = map[string]bool{
	modulePath + "/internal/core":           true,
	modulePath + "/internal/msg":            true,
	modulePath + "/internal/sched":          true,
	modulePath + "/internal/campaign":       true,
	modulePath + "/internal/bench":          true,
	modulePath + "/internal/clock":          true,
	modulePath + "/internal/ckpt":           true,
	modulePath + "/internal/aging":          true,
	modulePath + "/internal/cluster":        true,
	modulePath + "/internal/cluster/gossip": true,
	modulePath + "/internal/defense":        true,
}

// bannedTimeFuncs are the time package's ambient-wall-clock entry
// points. time.Duration arithmetic and time.Time values handed in from
// internal/clock are fine; minting fresh wall-clock readings is not.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedRandFuncs are math/rand's (and math/rand/v2's) global
// convenience functions, which draw from a process-wide source seeded
// outside the trial. Explicit rand.New(rand.NewSource(seed)) generators
// are deterministic and allowed.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// DetClock enforces virtual time in deterministic packages: simulated
// time comes from internal/clock, randomness from per-trial seeded
// generators. Justified wall-clock sites (reboot latency measurement,
// the bench wall timer) carry a //vampos:allow detclock directive.
var DetClock = &Analyzer{
	Name: "detclock",
	Doc: "deterministic packages must not read the wall clock (time.Now/Since/…) " +
		"or global math/rand state; virtual time comes from internal/clock",
	Run: runDetClock,
}

func runDetClock(pass *Pass) error {
	if !deterministicPkgs[pass.Path] && componentOf(pass.Path) == "" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if bannedTimeFuncs[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"wall clock in deterministic package %s: time.%s breaks byte-identical replay; use virtual time from internal/clock (or annotate the site: //vampos:allow detclock -- <reason>)",
						pass.Path, sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if bannedRandFuncs[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"global random source in deterministic package %s: rand.%s is seeded outside the trial; use a per-trial rand.New(rand.NewSource(seed))",
						pass.Path, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
