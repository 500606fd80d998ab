package campaign

import (
	"os"
	"testing"
	"time"

	"vampos/internal/golden"
)

// TestMain holds this package, the longest of the tier-1 run, to a CPU
// budget. Two full runs measured 184 s and 191 s of CPU (user plus
// system) on a 2-core Intel Xeon box; the budget is 1.5 times the
// larger, 287 s.
func TestMain(m *testing.M) {
	os.Exit(golden.RunWithinCPU(m, 287*time.Second))
}
