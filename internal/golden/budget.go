package golden

import (
	"flag"
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"
)

// ProcessCPU returns the user plus system CPU time this process has used.
// A budget on it, rather than on wall time, holds whatever else shares
// the cores: waiting for a core is not the tests' cost.
func ProcessCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// RunWithinCPU is a TestMain body for the golden-heavy test binaries: it
// runs the tests, then fails the binary if the whole run used more than
// budget of CPU, so new goldens cannot push the tier-1 run past its
// timeout unnoticed. The check is skipped under the race detector, which
// multiplies CPU time, and when -run or -count changes the set of tests
// that ran.
func RunWithinCPU(m *testing.M, budget time.Duration) int {
	code := m.Run()
	if code != 0 || RaceEnabled || flag.Lookup("test.run").Value.String() != "" ||
		flag.Lookup("test.count").Value.String() != "1" {
		return code
	}
	used, err := ProcessCPU()
	if err != nil {
		fmt.Fprintf(os.Stderr, "CPU budget: %v\n", err)
		return 1
	}
	if used > budget {
		fmt.Fprintf(os.Stderr, "FAIL: the tests used %v of CPU, over the %v budget\n", used.Round(time.Millisecond), budget)
		return 1
	}
	return code
}
