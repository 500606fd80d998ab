package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vampos/internal/apps/redis"
	"vampos/internal/host"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// The scaling figure measures what the sharded-baton engine buys in wall
// time: one instance hosts ScalingCells independent redis cells, each
// listening on its own port with its server threads pinned to its own
// shard ordinal, all served over the shared lwip/netdev/virtio stack.
// Host-side clients drive a sustained SET load against every cell at
// once and the figure reports wall-clock throughput as GOMAXPROCS grows
// with the shard count held fixed. Virtual time is useless here — it is
// identical by construction across every row (that is the determinism
// claim, and the figure asserts it via a per-row fingerprint); the wall
// column is the entire point.

// scalingBasePort is the first cell's port; cell i listens at +i.
const scalingBasePort = 6400

// scalingCellOrdinal returns the shard ordinal for cell i. Kernel
// component groups take ordinals 1..G at boot; cells start above them so
// the fold (ordinal mod shard count) spreads cells across runners
// instead of stacking them all on one kernel shard.
func scalingCellOrdinal(i int) int { return 10 + i }

// ScalingRow is one measured configuration of the scaling figure.
type ScalingRow struct {
	Procs      int           // GOMAXPROCS during the run
	Shards     int           // shard-baton count (Config.Shards)
	Ops        int           // total SETs acknowledged across all cells
	Wall       time.Duration // wall time of the sustained phase
	Throughput float64       // ops per wall second

	// SliceWall is the summed real execution time of all buffered round
	// slices; CriticalPath replaces each round's bucket sum with its
	// slowest runner bucket. ModelWall = Wall - SliceWall + CriticalPath
	// estimates the wall a host with >= min(shards, round width) free
	// cores would measure: round slices are the only truly concurrent
	// work, so swapping their serial sum for their critical path is
	// exactly the parallel capacity the engine exposes. On a host with
	// that many cores, measured Wall converges to ModelWall.
	SliceWall       time.Duration
	CriticalPath    time.Duration
	ModelWall       time.Duration
	ModelThroughput float64 // ops per ModelWall second

	// RoundWall is the wall time the rounds actually took (sched.Stats):
	// CriticalPath/RoundWall is the round efficiency, 1 when a parallel
	// round costs no more than its slowest bucket.
	RoundWall time.Duration

	// PenWidth is the mean width of application pen rounds (threads
	// released per flush): the concurrency the workload actually offered.
	PenWidth float64

	// VirtualElapsed and Keys fingerprint the simulated outcome: every
	// row with a positive shard count must produce identical values or
	// the determinism contract is broken.
	VirtualElapsed time.Duration
	Keys           int
}

// RoundEfficiency is CriticalPath/RoundWall (0 before any round ran).
func (r ScalingRow) RoundEfficiency() float64 {
	if r.RoundWall <= 0 {
		return 0
	}
	return float64(r.CriticalPath) / float64(r.RoundWall)
}

// ScalingResult is the sharded-baton scaling figure.
type ScalingResult struct {
	Cells      int // independent redis cells (one shard ordinal each)
	OpsPerCell int
	ValueBytes int

	// Baseline is the single-shard row (Shards=1, GOMAXPROCS=1): the
	// legacy-equivalent configuration the scaled rows are compared to.
	Baseline ScalingRow
	// Rows are the scaled configurations: scalingShards shards at each
	// GOMAXPROCS in ScalingProcs.
	Rows []ScalingRow

	// HostCPUs records runtime.NumCPU() for the run: measured wall
	// speedup is physically capped at this number, whatever the engine's
	// parallel capacity.
	HostCPUs int

	// Speedup = Rows[0].ModelThroughput / Baseline.Throughput: the
	// critical-path throughput of the sharded configuration over the
	// single-baton baseline. This is the engine's parallel capacity —
	// independent of how many cores the measuring host happens to have —
	// and the number the shape test requires >= 2 at the default scale
	// (4 cells, 4 shards). It is taken from the GOMAXPROCS=1 row because
	// that is the least contended measurement (co-scheduling more
	// runners than the host has cores inflates per-slice readings).
	// WallSpeedup is the directly measured counterpart,
	// Rows[last].Throughput / Rows[first].Throughput across the
	// GOMAXPROCS axis; it converges to Speedup as the host provides
	// cores and stays ~1 on a single-core host.
	Speedup     float64
	WallSpeedup float64

	// FingerprintOK reports that every row (baseline included) produced
	// the same virtual elapsed time and final key count: the scheduler's
	// canonical event order did not depend on shard count or core count.
	FingerprintOK bool
}

// scalingShards is the shard-baton count of the scaled rows.
const scalingShards = 4

// RunScaling measures sustained redis-over-lwip throughput against core
// count. Rows run sequentially, each in a fresh instance, with
// GOMAXPROCS temporarily pinned to the row's value.
func RunScaling(scale Scale) (*ScalingResult, error) {
	res := &ScalingResult{
		Cells:      scale.ScalingCells,
		OpsPerCell: scale.ScalingOpsPerCell,
		ValueBytes: scale.ScalingValueBytes,
		HostCPUs:   runtime.NumCPU(),
	}
	procs := scale.ScalingProcs
	if len(procs) == 0 {
		procs = []int{1, 2, 4}
	}
	base, err := runScalingRow(scale, 1, 1)
	if err != nil {
		return nil, err
	}
	res.Baseline = base
	for _, p := range procs {
		row, err := runScalingRow(scale, p, scalingShards)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Throughput > 0 {
		res.WallSpeedup = last.Throughput / first.Throughput
	}
	if base.Throughput > 0 {
		res.Speedup = first.ModelThroughput / base.Throughput
	}
	res.FingerprintOK = true
	for _, r := range res.Rows {
		if r.VirtualElapsed != base.VirtualElapsed || r.Keys != base.Keys {
			res.FingerprintOK = false
		}
	}
	return res, nil
}

// runScalingRow boots one instance at the given shard count, pins
// GOMAXPROCS, and measures the sustained phase.
func runScalingRow(scale Scale, procs, shards int) (ScalingRow, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	cc := coreConfig(DaS)
	cc.Shards = shards
	row := ScalingRow{Procs: procs, Shards: shards}
	err := runInstance(fullProfile(cc), nil, func(s *unikernel.Sys, _ *unikernel.Instance) error {
		return scalingBody(s, scale, &row)
	})
	if err != nil {
		return ScalingRow{}, err
	}
	row.ModelWall = row.Wall - row.SliceWall + row.CriticalPath
	if row.ModelWall < row.CriticalPath {
		// On a multi-core host the measured wall already overlaps slices,
		// so the subtraction can undershoot; the critical path is the
		// floor any host must pay.
		row.ModelWall = row.CriticalPath
	}
	if sec := row.ModelWall.Seconds(); sec > 0 {
		row.ModelThroughput = float64(row.Ops) / sec
	}
	return row, nil
}

// scalingBody starts the cells, waits for every client to connect, then
// times the sustained phase. All coordination state below is touched
// only by host client threads and the controller — both run on the
// conductor, never inside a parallel round — so plain variables are safe.
func scalingBody(s *unikernel.Sys, scale Scale, row *ScalingRow) error {
	cells := scale.ScalingCells
	value := strings.Repeat("v", scale.ScalingValueBytes)
	for i := 0; i < cells; i++ {
		kv := redis.New()
		kv.Port = scalingBasePort + i
		kv.AOF = false
		kv.CPUWork = scale.ScalingCPUWork
		name := fmt.Sprintf("scaling/cell%d", i)
		s.GoShard(name, scalingCellOrdinal(i), func(cs *unikernel.Sys) {
			// Main returns once the cell's acceptor is serving; a failure
			// surfaces as the client's dial error below.
			_ = kv.Main(cs)
		})
	}
	var (
		connected, done, keys int
		start                 bool
		firstErr              error
	)
	for i := 0; i < cells; i++ {
		port := scalingBasePort + i
		peer := s.NewPeer()
		s.GoHost(fmt.Sprintf("scaling/client%d", i), func(th *sched.Thread) {
			defer func() { done++ }()
			cl, err := dialScalingCell(s, th, peer, port)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				connected++
				return
			}
			defer cl.Close()
			connected++
			for !start {
				th.Sleep(100 * time.Microsecond)
			}
			for op := 0; op < scale.ScalingOpsPerCell; op++ {
				key := fmt.Sprintf("k%04d", op%256)
				if err := cl.Set(key, value, 5*time.Second); err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("cell %d op %d: %w", port-scalingBasePort, op, err)
					}
					return
				}
			}
			n, err := cl.DBSize(5 * time.Second)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			keys += n
			row.Ops += scale.ScalingOpsPerCell
		})
	}
	for connected < cells {
		s.Sleep(time.Millisecond)
	}
	if firstErr != nil {
		return firstErr
	}
	sch := s.Instance().Runtime().Scheduler()
	st0 := sch.Stats()
	timer := startWallTimer()
	start = true
	for done < cells {
		s.Sleep(time.Millisecond)
	}
	row.Wall = timer.Elapsed()
	st1 := sch.Stats()
	row.SliceWall = st1.SliceWall - st0.SliceWall
	row.CriticalPath = st1.RoundCritical - st0.RoundCritical
	row.RoundWall = st1.RoundWall - st0.RoundWall
	if flushes := st1.PenFlushes - st0.PenFlushes; flushes > 0 {
		row.PenWidth = float64(st1.Penned-st0.Penned) / float64(flushes)
	}
	if firstErr != nil {
		return firstErr
	}
	if sec := row.Wall.Seconds(); sec > 0 {
		row.Throughput = float64(row.Ops) / sec
	}
	row.VirtualElapsed = s.Elapsed()
	row.Keys = keys
	return nil
}

// dialScalingCell connects to one cell, retrying while its acceptor is
// still coming up (cell starters run as guest threads, so the listener
// may appear a few virtual milliseconds after the client).
func dialScalingCell(s *unikernel.Sys, th *sched.Thread, peer *host.Peer, port int) (*RedisClient, error) {
	var lastErr error
	for try := 0; try < 200; try++ {
		cl, err := DialRedis(s, th, peer, port, time.Second)
		if err == nil {
			return cl, nil
		}
		lastErr = err
		th.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("dial cell port %d: %w", port, lastErr)
}

// DBSize issues DBSIZE and returns the reported key count.
func (c *RedisClient) DBSize(timeout time.Duration) (int, error) {
	if err := c.conn.Send(c.th, []byte("DBSIZE\n")); err != nil {
		return 0, err
	}
	line, err := c.conn.RecvLine(c.th, timeout)
	if err != nil {
		return 0, err
	}
	h := strings.TrimRight(string(line), "\n")
	if !strings.HasPrefix(h, ":") {
		return 0, fmt.Errorf("DBSIZE reply %q", h)
	}
	return strconv.Atoi(h[1:])
}

// Render produces the scaling figure as a table.
func (r *ScalingResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Scaling figure — %d redis cells x %d SETs (%d B values) over lwip, sharded batons (DaS)",
			r.Cells, r.OpsPerCell, r.ValueBytes),
		headers: []string{"GOMAXPROCS", "shards", "ops", "wall", "ops/s (wall)", "critical path", "round efficiency", "ops/s (model)", "pen width"},
	}
	add := func(row ScalingRow) {
		t.addRow(fmt.Sprintf("%d", row.Procs), fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%d", row.Ops), fmtDur(row.Wall), fmt.Sprintf("%.0f", row.Throughput),
			fmtDur(row.CriticalPath), fmt.Sprintf("%.2f", row.RoundEfficiency()), fmt.Sprintf("%.0f", row.ModelThroughput),
			fmt.Sprintf("%.1f", row.PenWidth))
	}
	add(r.Baseline)
	for _, row := range r.Rows {
		add(row)
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	t.addNote(fmt.Sprintf("measured wall speedup %.2fx from GOMAXPROCS=%d to %d on a %d-CPU host (%.0f -> %.0f ops/s; round efficiency = critical path / wall the rounds took)",
		r.WallSpeedup, first.Procs, last.Procs, r.HostCPUs, first.Throughput, last.Throughput))
	t.addNote(fmt.Sprintf("capacity model, not a measurement: a core per shard would run the same slices at %.2fx the single-baton baseline at %d shards (round critical path vs serial slice sum)",
		r.Speedup, first.Shards))
	if r.FingerprintOK {
		t.addNote("every row produced the identical virtual elapsed time and key count: the canonical event order is independent of shard and core count")
	} else {
		t.addNote("WARNING: virtual fingerprints diverged across rows — determinism contract broken")
	}
	return t.String()
}
