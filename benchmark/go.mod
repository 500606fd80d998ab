// The benchmark is a module of its own so that it builds, vets and tests
// apart from the program it measures (`go build ./...` at the root skips it).
// Its path sits under the program's, which is what lets it import
// vampos/internal/...; the replace points at the checkout it runs in.
module vampos/benchmark

go 1.22

require vampos v0.0.0

replace vampos => ../
