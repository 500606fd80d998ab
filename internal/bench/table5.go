package bench

import (
	"fmt"
	"time"

	"vampos/internal/apps/nginx"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// Table5Variant is one rejuvenation strategy.
type Table5Variant string

// Rejuvenation strategies compared by Table V.
const (
	VariantVampOS     Table5Variant = "vampos"   // component-by-component reboots
	VariantFullReboot Table5Variant = "unikraft" // whole-image reboots
)

// Table5Row is one variant's siege outcome.
type Table5Row struct {
	Variant   Table5Variant
	Success   int
	Fails     int
	Reboots   int
	VirtualAt time.Duration // virtual duration of the run
}

// SuccessRatio returns the request success fraction.
func (r Table5Row) SuccessRatio() float64 {
	total := r.Success + r.Fails
	if total == 0 {
		return 0
	}
	return float64(r.Success) / float64(total)
}

// Table5Result is the software-rejuvenation comparison.
type Table5Result struct {
	Rows []Table5Row
}

// RunTable5 reproduces the paper's siege-under-rejuvenation scenario:
// clients hammer Nginx with GETs while the administrator rejuvenates —
// either each unikernel component one by one (VampOS) or the whole image
// (the Unikraft baseline).
func RunTable5(scale Scale) (*Table5Result, error) {
	res := &Table5Result{}
	for _, v := range []Table5Variant{VariantFullReboot, VariantVampOS} {
		row, err := runTable5Variant(v, scale)
		if err != nil {
			return nil, fmt.Errorf("table5 %s: %w", v, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// siegeTimeout is a siege client's per-request timeout.
const siegeTimeout = 2 * time.Second

func runTable5Variant(variant Table5Variant, scale Scale) (*Table5Row, error) {
	row := &Table5Row{Variant: variant}
	err := runInstance(fullProfile(coreConfig(DaS)), seedIndex, func(s *unikernel.Sys, _ *unikernel.Instance) error {
		app := nginx.New()
		app.Workers = 4
		if err := s.StartApp(app); err != nil {
			return err
		}
		start := s.Elapsed()
		var success, fails int
		doneClients := 0
		for c := 0; c < scale.SiegeClients; c++ {
			peer := s.NewPeer()
			s.GoHost(fmt.Sprintf("siege%d", c), func(th *sched.Thread) {
				defer func() { doneClients++ }()
				var cl *HTTPClient
				redial := func() bool {
					for attempt := 0; attempt < 5; attempt++ {
						var err error
						cl, err = DialHTTP(s, th, peer, nginx.DefaultPort, siegeTimeout)
						if err == nil {
							return true
						}
						th.Sleep(100 * time.Millisecond)
					}
					return false
				}
				if !redial() {
					fails += scale.SiegeRequests
					return
				}
				for i := 0; i < scale.SiegeRequests; i++ {
					// Pace requests so the siege spans several
					// rejuvenation intervals, like the paper's 100
					// threads over a minute.
					th.Sleep(scale.RejuvInterval / time.Duration(scale.SiegeRequests/4+1))
					if _, err := cl.Get("/index.html", siegeTimeout); err != nil {
						fails++
						cl.Close()
						if !redial() {
							fails += scale.SiegeRequests - i - 1
							return
						}
						continue
					}
					success++
				}
				cl.Close()
			})
		}
		// The administrator's rejuvenation loop.
		targets := []string{"process", "sysinfo", "user", "timer", "netdev", "9pfs", "lwip", "vfs"}
		next := 0
		for doneClients < scale.SiegeClients {
			s.Sleep(scale.RejuvInterval)
			if doneClients >= scale.SiegeClients {
				break
			}
			switch variant {
			case VariantVampOS:
				if err := s.Reboot(targets[next%len(targets)]); err != nil {
					return fmt.Errorf("reboot %s: %w", targets[next%len(targets)], err)
				}
				next++
				row.Reboots++
			case VariantFullReboot:
				if err := s.FullReboot(); err != nil {
					return fmt.Errorf("full reboot: %w", err)
				}
				row.Reboots++
			}
		}
		row.Success = success
		row.Fails = fails
		row.VirtualAt = s.Elapsed() - start
		return nil
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// Render produces the Table V table.
func (r *Table5Result) Render() string {
	t := &table{
		title:   "Table V — request successes across software rejuvenation",
		headers: []string{"", "unikraft (full reboot)", "vampos (component reboot)"},
	}
	get := func(v Table5Variant) Table5Row {
		for _, row := range r.Rows {
			if row.Variant == v {
				return row
			}
		}
		return Table5Row{}
	}
	u, vo := get(VariantFullReboot), get(VariantVampOS)
	t.addRow("success", fmt.Sprintf("%d", u.Success), fmt.Sprintf("%d", vo.Success))
	t.addRow("fails", fmt.Sprintf("%d", u.Fails), fmt.Sprintf("%d", vo.Fails))
	t.addRow("success ratio",
		fmt.Sprintf("%.1f%%", u.SuccessRatio()*100),
		fmt.Sprintf("%.1f%%", vo.SuccessRatio()*100))
	t.addRow("reboots performed", fmt.Sprintf("%d", u.Reboots), fmt.Sprintf("%d", vo.Reboots))
	t.addNote("paper: 74.9%% vs 100%% — full reboots drop every live connection; VampOS reboots drop none")
	return t.String()
}
