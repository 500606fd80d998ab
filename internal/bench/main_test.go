package bench

import (
	"os"
	"testing"
	"time"

	"vampos/internal/golden"
)

// TestMain holds this package to a CPU budget. Two full runs measured
// 65 s and 62 s of CPU (user plus system) on a 2-core Intel Xeon box;
// the budget is 1.5 times the larger, 98 s.
func TestMain(m *testing.M) {
	os.Exit(golden.RunWithinCPU(m, 98*time.Second))
}
