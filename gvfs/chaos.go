package gvfs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/simnet"
)

// This file is the chaos harness: N concurrent mounts driven through a
// random operation schedule while a seeded fault plan disrupts the wide
// area (drops, duplicates, reordering, jitter, partition/heal cycles,
// proxy-server crash/restarts), with every observed read checked against
// the visibility rules of the configured consistency model.
//
// The checker is deliberately assertion-per-model, not shadow-state: under
// write-back caching two concurrent writers give last-FLUSH-wins, not
// last-write-wins, so a read is judged against the set of writes that are
// *plausible* at its virtual time. A write w stops being plausible only
// when some anchor write wa provably supersedes it: wa started after w's
// last possible server landing (w.end + flushLag), and wa is either (a)
// globally propagated (its visibility deadline passed before the read
// began), (b) the reading client's own earlier write (read-your-writes), or
// (c) a value this client already observed (monotonic reads). Failed ops
// are indeterminate: plausible forever, never excluders.
//
// The staleness windows are per model. Polling (Section 4.2) bounds
// staleness by the poll window — but only while polls succeed, so a
// partition extends the bound by its duration. Delegation (Section 4.3)
// bounds it by the DelegRenew forwarding lease that covers lost callbacks.

// ChaosOptions parameterizes a chaos run. Zero values select defaults.
type ChaosOptions struct {
	// Model is the consistency model under test (default ModelPolling).
	Model core.Model
	// Metadata switches the workload from data overwrites to namespace
	// churn: exclusive creates, unlinks, and renames over a shared name
	// pool, probed by stats, access checks, and readdir membership scans.
	// The checker then validates observed *existence* instead of observed
	// values, exercising the proxy's dentry, negative-lookup, and listing
	// caches under the same fault plan.
	Metadata bool
	// Clients is the number of concurrent client mounts (default 2).
	Clients int
	// Steps is the number of operations each client performs (default 120).
	Steps int
	// Seed drives the op schedule, the fault plan, and the link PRNGs.
	Seed int64
	// Files is the number of shared paths clients contend on (default 6).
	Files int
	// ValueSize is the fixed byte size of every file (default 64). Writes
	// are whole-value overwrites at offset zero so the files never change
	// size and every read/write is a single atomic RPC.
	ValueSize int
	// Faults is the per-link fault policy installed between every client
	// host and the server host once setup completes. Its Seed field is
	// overwritten with Seed.
	Faults simnet.Faults
	// Partitions is the number of partition/heal cycles, each isolating
	// one client host from the server for 10–25 s (default 1; -1 for
	// none).
	Partitions int
	// ServerRestarts is the number of proxy-server crash/restarts
	// (default 1; -1 for none).
	ServerRestarts int
	// OpGap bounds the random think time between a client's operations
	// (default 3s; actual gaps are 500ms + uniform[0, OpGap)).
	OpGap time.Duration
	// FlushParallelism is forwarded to core.Config.FlushParallelism: how
	// many dirty-block WRITEs a proxy-client flush keeps in flight at
	// once. 0 keeps the core default (serial).
	FlushParallelism int
	// TraceAll dumps the span trace of every contended path into
	// ChaosReport.Traces, not just paths implicated in a violation — for
	// replay-determinism assertions and offline inspection.
	TraceAll bool
	// Overload runs the session's proxy server with a bounded scheduling
	// layer (small worker pool, global token-bucket admission) and opens
	// every client's op schedule with a synchronized burst fan-in of cold
	// reads, so the server provably sheds load (TRY_LATER) while the
	// at-least-once machinery absorbs it. Clients defaults to 6 in this
	// mode.
	Overload bool
	// DiskCacheDir enables the persistent disk cache on every mount (each
	// mount persists under its own subdirectory). Required for WarmRestarts.
	DiskCacheDir string
	// WarmRestarts is the number of proxy-client warm restarts in data mode:
	// a randomly chosen client is killed mid-run without any shutdown
	// (in-flight flushes and all in-memory state drop on the floor; the
	// persistent disk cache survives in whatever mid-state the crash left)
	// and remounted from the same disk directory, recovering dirty blocks
	// into write-back and revalidating clean ones. Defaults to 1 when
	// DiskCacheDir is set; -1 for none. Ignored in Metadata mode.
	WarmRestarts int
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Model == 0 {
		o.Model = core.ModelPolling
	}
	if o.Clients == 0 {
		o.Clients = 2
		if o.Overload {
			o.Clients = 6
		}
	}
	if o.Steps == 0 {
		o.Steps = 120
	}
	if o.Files == 0 {
		o.Files = 6
	}
	if o.ValueSize == 0 {
		o.ValueSize = 64
	}
	// Negative counts mean "none" and survive repeated normalization
	// (withDefaults must be idempotent: RunChaos and NewChaosPlan both
	// apply it).
	if o.Partitions == 0 {
		o.Partitions = 1
	}
	if o.ServerRestarts == 0 {
		o.ServerRestarts = 1
	}
	if o.WarmRestarts == 0 && o.DiskCacheDir != "" {
		o.WarmRestarts = 1
	}
	if o.OpGap == 0 {
		o.OpGap = 3 * time.Second
	}
	o.Faults.Seed = o.Seed
	return o
}

// ChaosEvent is one scheduled disruption, in virtual time from the start
// of the op phase.
type ChaosEvent struct {
	At   time.Duration
	Kind string // "partition", "heal", "restart-server", "restart-client"
	Host string // the targeted client host (partition/heal/restart-client)
}

// ChaosPlan is the deterministic disruption schedule derived from a seed.
type ChaosPlan struct {
	Seed   int64
	Faults simnet.Faults
	Events []ChaosEvent
}

// maxPartition bounds every partition's duration; the checker's staleness
// windows depend on it.
const maxPartition = 25 * time.Second

// NewChaosPlan derives the disruption schedule from the options alone, so
// the same seed always yields the same plan.
func NewChaosPlan(o ChaosOptions) ChaosPlan {
	o = o.withDefaults()
	r := rand.New(rand.NewSource(o.Seed ^ 0x5eedfa17))
	// Ops span roughly Steps * (500ms + OpGap/2); schedule disruptions
	// inside the middle 70% so setup and drain stay clean.
	span := time.Duration(o.Steps) * (500*time.Millisecond + o.OpGap/2)
	lo, hi := span/10, span*8/10
	randAt := func() time.Duration {
		return lo + time.Duration(r.Int63n(int64(hi-lo)))
	}
	plan := ChaosPlan{Seed: o.Seed, Faults: o.Faults}
	for i := 0; i < max(0, o.Partitions); i++ {
		at := randAt()
		host := chaosHost(r.Intn(o.Clients))
		dur := 10*time.Second + time.Duration(r.Int63n(int64(maxPartition-10*time.Second)))
		plan.Events = append(plan.Events,
			ChaosEvent{At: at, Kind: "partition", Host: host},
			ChaosEvent{At: at + dur, Kind: "heal", Host: host},
		)
	}
	for i := 0; i < max(0, o.ServerRestarts); i++ {
		plan.Events = append(plan.Events, ChaosEvent{At: randAt(), Kind: "restart-server"})
	}
	if o.DiskCacheDir != "" && !o.Metadata {
		for i := 0; i < max(0, o.WarmRestarts); i++ {
			plan.Events = append(plan.Events,
				ChaosEvent{At: randAt(), Kind: "restart-client", Host: chaosHost(r.Intn(o.Clients))})
		}
	}
	sort.Slice(plan.Events, func(i, j int) bool { return plan.Events[i].At < plan.Events[j].At })
	return plan
}

func chaosHost(i int) string { return fmt.Sprintf("C%d", i+1) }

// chaosBurstFiles is how many cold files each client reads back-to-back in
// the Overload mode's opening burst fan-in.
const chaosBurstFiles = 6

func chaosBurstPath(client, k int) string {
	return fmt.Sprintf("burst/%s_%d", chaosHost(client), k)
}

// chaosBurstFanIn slams the proxy server with back-to-back cold reads from
// one client; run concurrently by every client it overdraws the Overload
// admission bucket by an order of magnitude, forcing sheds. Errors are
// ignored — the burst is load, not an observation (a read that exhausts its
// retransmission window under heavy shedding is the overload behaving as
// designed).
func chaosBurstFanIn(m *Mount, client int) {
	for k := 0; k < chaosBurstFiles; k++ {
		m.Client.ReadFile(chaosBurstPath(client, k))
	}
}

// ChaosReport summarizes a chaos run for assertions and debugging.
type ChaosReport struct {
	Plan     ChaosPlan
	Ops      int
	Reads    int
	Writes   int
	OpErrors int // ops that returned an error (indeterminate, not violations)
	// ErrorSamples holds up to 10 formatted op errors for debugging.
	ErrorSamples []string
	Violations   []string

	// NetEvents is the applied partition/heal log in simnet's stamped
	// virtual time: comparing it across runs asserts that a seeded plan
	// replays identically.
	NetEvents []simnet.Event
	NetStats  simnet.Stats
	Restarts  int
	// WarmRestarts counts proxy-client crash/remount-from-disk cycles the
	// plan's "restart-client" events actually performed.
	WarmRestarts int

	ClientStats core.ProxyClientStats // summed over all mounts
	ServerStats core.ProxyServerStats // the final server incarnation

	// Traces maps each path implicated in a violation to the formatted
	// span trace of every retained RPC that touched it — request IDs and
	// virtual timestamps across kernel clients, proxies, and the server —
	// so a seeded failure can be diagnosed without rerunning.
	Traces map[string]string

	// Metrics is the unified registry snapshot taken after the drain.
	Metrics obs.Snapshot

	// Retransmits and DRCHits total the at-least-once RPC machinery's work
	// across every node: same-XID retransmissions sent, and duplicate
	// requests answered from a server's reply cache instead of re-executed.
	Retransmits int64
	DRCHits     int64
	// Sheds totals gvfs_server_shed_total across every node: requests the
	// bounded scheduling layer answered with TRY_LATER (Overload mode).
	Sheds int64

	// StalenessViolations totals gvfs_staleness_violations_total across both
	// models: cache serves of data superseded by a remote commit inside the
	// client's freshness horizon. Zero on a correct run — the observatory
	// measures staleness the models permit, never staleness they forbid.
	StalenessViolations int64
	// Attribution is the formatted critical-path latency report over every
	// retained kernel request: per-op percentiles and segment shares, plus
	// the slowest requests' breakdowns.
	Attribution string
	// DroppedSpans counts spans the bounded rings overwrote before the final
	// harvest; nonzero means Traces and Attribution are lower bounds.
	DroppedSpans uint64
}

// traceSpans bounds how many spans a per-path violation trace retains.
const traceSpans = 400

// chaosOp is one recorded operation; the checker replays these after the
// run completes.
type chaosOp struct {
	kind       byte // 'w', 'r', 's'
	path       string
	start, end time.Duration
	err        error
	val        string // payload written, or observed by a read
	size       uint64 // stat result
	wr         *chaosWrite
}

// chaosWrite is the checker's record of one write (client -1 is the
// initial server-side contents).
type chaosWrite struct {
	client     int
	seq        int
	start, end time.Duration
	failed     bool
}

const farPast = time.Duration(math.MinInt64 / 4)

// flushEnd is the last virtual time at which w's data can still land on
// (or overwrite) the server.
func (w *chaosWrite) flushEnd(flushLag time.Duration) time.Duration {
	if w.client < 0 {
		return w.start // initial contents: on the server from the start
	}
	return w.end + flushLag
}

func chaosValue(client, seq, size int) string {
	s := fmt.Sprintf("v|%d|%06d|", client, seq)
	if len(s) < size {
		s += strings.Repeat(".", size-len(s))
	}
	return s
}

// parseChaosValue recovers (client, seq) from a payload; ok is false for
// anything the harness never wrote.
func parseChaosValue(s string) (client, seq int, ok bool) {
	parts := strings.SplitN(s, "|", 4)
	if len(parts) != 4 || parts[0] != "v" {
		return 0, 0, false
	}
	c, err1 := strconv.Atoi(parts[1])
	q, err2 := strconv.Atoi(parts[2])
	return c, q, err1 == nil && err2 == nil
}

// RunChaos stands up a fresh deployment, executes the seeded chaos
// schedule, and returns the checked report. The error covers harness
// failures (setup, final server state unreadable); consistency violations
// are reported in ChaosReport.Violations.
func RunChaos(o ChaosOptions) (*ChaosReport, error) {
	o = o.withDefaults()
	plan := NewChaosPlan(o)

	d, err := NewDeployment(Config{})
	if err != nil {
		return nil, err
	}
	defer d.Close()

	cfg := core.Config{
		Model:            o.Model,
		PollPeriod:       10 * time.Second,
		PollBackoffMax:   10 * time.Second, // no idle backoff: keep the poll window fixed
		FlushInterval:    10 * time.Second,
		CallTimeout:      4 * time.Second,
		DelegRenew:       30 * time.Second,
		DelegExpiry:      2 * time.Minute,
		FlushParallelism: o.FlushParallelism,
		// Same-XID retransmission inside each 4 s call window (at ~1 s and
		// ~3 s), so a dropped request or reply is usually recovered without
		// surfacing an error; the jitter hash is seeded from the run so
		// replays stay byte-identical.
		RetransmitInitial: time.Second,
		RetransmitMax:     4 * time.Second,
		RetransmitSeed:    o.Seed,
	}
	if o.Model == core.ModelPolling {
		cfg.WriteBack = true
	}
	if o.DiskCacheDir != "" {
		cfg.DiskCacheDir = o.DiskCacheDir // Mount appends the hostname
	}
	if o.Overload {
		// Bounded server: a two-worker pool and a global admission bucket
		// sized well below the opening burst fan-in, so the run provably
		// sheds (gvfs_server_shed_total > 0) and every shed is absorbed by
		// same-XID retransmission.
		cfg.ServerWorkers = 2
		cfg.RateLimitOps = 25
		cfg.RateLimitBurst = 10
	}
	// rpcSlack: up to 3 rawCall attempts (timeout + redial pause) plus margin.
	rpcSlack := 3*(cfg.CallTimeout+time.Second) + 5*time.Second
	// flushLag: how long after an op returns its data can still land on the
	// server — a flush tick, blocked for a whole partition, plus the retry
	// tick after the heal.
	flushLag := 2*cfg.FlushInterval + maxPartition + rpcSlack + 10*time.Second
	// propLag: how long after landing a value can remain invisible to other
	// clients. Polling: the poll window, extended by a partition that
	// blocks GETINV. Delegation: the DelegRenew forwarding lease that
	// bounds serving after a lost callback (a partition cannot extend it —
	// the lease is time-based).
	var propLag time.Duration
	if o.Model == core.ModelPolling {
		propLag = cfg.PollPeriod + maxPartition + rpcSlack + 10*time.Second
	} else {
		propLag = cfg.DelegRenew + rpcSlack + 10*time.Second
	}

	// nameLag: how long after a write-through namespace op returns its
	// effect can still land on the server (in-flight retries only — there
	// is no write-back buffer for namespace state).
	nameLag := rpcSlack

	rep := &ChaosReport{Plan: plan}
	paths := make([]string, o.Files)
	writes := make(map[string][]*chaosWrite, o.Files)
	nameEvents := make(map[string][]*chaosNameEvent)
	logs := make([][]chaosOp, o.Clients)
	metaLogs := make([][]chaosMetaOp, o.Clients)
	mounts := make([]*Mount, o.Clients)
	var sess *Session
	var runErr error

	d.Run("chaos", func() {
		// Setup: session, initial server-side contents, one mount per host.
		sess, runErr = d.NewSession("chaos", cfg)
		if runErr != nil {
			return
		}
		initTime := d.Clock.Now()
		if o.Metadata {
			// Name pool: twice as many names as "files", half pre-created
			// so unlinks, probes, and negative lookups all have material
			// from the first step.
			paths = make([]string, 2*o.Files)
			for i := range paths {
				paths[i] = chaosMetaName(i)
				exists := i%2 == 0
				if exists {
					if _, err := d.FS.WriteFile(paths[i], []byte("x")); err != nil {
						runErr = fmt.Errorf("chaos: seed %s: %w", paths[i], err)
						return
					}
				}
				nameEvents[paths[i]] = []*chaosNameEvent{{client: -1, exists: exists, start: initTime, end: initTime}}
			}
			for i := 0; i < chaosMetaGhosts; i++ {
				nameEvents[chaosMetaGhost(i)] = []*chaosNameEvent{{client: -1, exists: false, start: initTime, end: initTime}}
			}
		} else {
			for i := range paths {
				paths[i] = fmt.Sprintf("chaos/f%d", i)
				if _, err := d.FS.WriteFile(paths[i], []byte(chaosValue(-1, 0, o.ValueSize))); err != nil {
					runErr = fmt.Errorf("chaos: seed %s: %w", paths[i], err)
					return
				}
				writes[paths[i]] = []*chaosWrite{{client: -1, start: initTime, end: initTime}}
			}
		}
		if o.Overload {
			// Per-client cold files for the opening burst fan-in: distinct
			// paths so the burst is pure server load, invisible to the
			// consistency checker.
			for i := 0; i < o.Clients; i++ {
				for k := 0; k < chaosBurstFiles; k++ {
					if _, err := d.FS.WriteFile(chaosBurstPath(i, k), []byte("burst")); err != nil {
						runErr = fmt.Errorf("chaos: seed burst file: %w", err)
						return
					}
				}
			}
		}
		for i := range mounts {
			// NoAC so the kernel client revalidates attributes on every
			// access: observed staleness is then purely the proxies'.
			m, err := sess.Mount(chaosHost(i), nfsclient.Options{NoAC: true})
			if err != nil {
				runErr = fmt.Errorf("chaos: mount %s: %w", chaosHost(i), err)
				return
			}
			mounts[i] = m
		}

		// Chaos begins: install the fault policy on every client<->server
		// link and let the driver apply the scheduled disruptions.
		t0 := d.Clock.Now()
		for i := 0; i < o.Clients; i++ {
			d.Net.SetFaults(chaosHost(i), "server", plan.Faults)
		}
		var restartMu sync.Mutex
		// Warm restarts are performed by the target client's own loop at the
		// first op boundary past the scheduled time, not by the driver: the
		// loop is the mount's only user, so the crash/remount swap needs no
		// cross-goroutine handoff. Times are absolute virtual clock values.
		warmAt := make([][]time.Duration, o.Clients)
		for _, ev := range plan.Events {
			if ev.Kind != "restart-client" {
				continue
			}
			for i := 0; i < o.Clients; i++ {
				if chaosHost(i) == ev.Host {
					warmAt[i] = append(warmAt[i], t0+ev.At)
				}
			}
		}
		g := d.NewGroup()
		g.Go("chaos-driver", func() {
			for _, ev := range plan.Events {
				if until := t0 + ev.At - d.Clock.Now(); until > 0 {
					d.Clock.Sleep(until)
				}
				switch ev.Kind {
				case "partition":
					d.Net.Partition(ev.Host, "server")
				case "heal":
					d.Net.Heal(ev.Host, "server")
				case "restart-server":
					if err := sess.RestartProxyServer(); err != nil {
						restartMu.Lock()
						rep.Violations = append(rep.Violations,
							fmt.Sprintf("driver: restart proxy server: %v", err))
						restartMu.Unlock()
						continue
					}
					restartMu.Lock()
					rep.Restarts++
					restartMu.Unlock()
				}
			}
		})
		for i := range mounts {
			i := i
			g.Go(fmt.Sprintf("chaos-%s", chaosHost(i)), func() {
				if o.Overload {
					chaosBurstFanIn(mounts[i], i)
				}
				if o.Metadata {
					metaLogs[i] = chaosMetaClientLoop(d, mounts[i], i, o, paths)
				} else {
					logs[i] = chaosClientLoop(d, sess, mounts, i, o, paths, warmAt[i], &restartMu, rep)
				}
			})
		}
		g.Wait()

		// Drain: lift the faults, then wait out every window so all dirty
		// data lands and every cache converges before the final check.
		for i := 0; i < o.Clients; i++ {
			d.Net.SetFaults(chaosHost(i), "server", simnet.Faults{})
		}
		d.Clock.Sleep(flushLag + propLag + 30*time.Second)
	})
	if runErr != nil {
		return nil, runErr
	}

	if o.Metadata {
		// Merge namespace events into per-name history, then check every
		// existence observation. Reads counts the checkable probes; Writes
		// counts the successful state-establishing ops.
		for _, log := range metaLogs {
			for i := range log {
				op := &log[i]
				rep.Ops++
				if op.err != nil {
					rep.OpErrors++
					if len(rep.ErrorSamples) < 10 {
						rep.ErrorSamples = append(rep.ErrorSamples, fmt.Sprintf(
							"%c %s at %v: %v", op.kind, op.name, op.end, op.err))
					}
				}
				if op.probe {
					rep.Reads++
				} else if op.err == nil && len(op.events) > 0 {
					rep.Writes++
				}
				for n, e := range op.events {
					nameEvents[n] = append(nameEvents[n], e)
				}
			}
		}
		for client, log := range metaLogs {
			rep.Violations = append(rep.Violations,
				checkMetaClientLog(client, log, nameEvents, nameLag, propLag)...)
		}
		rep.Violations = append(rep.Violations,
			checkFinalNameState(d, paths, nameEvents, nameLag)...)
	} else {
		// Merge write records into per-path history, then check every read.
		for _, log := range logs {
			for i := range log {
				op := &log[i]
				rep.Ops++
				if op.err != nil {
					rep.OpErrors++
					if len(rep.ErrorSamples) < 10 {
						rep.ErrorSamples = append(rep.ErrorSamples, fmt.Sprintf(
							"%c %s at %v: %v", op.kind, op.path, op.end, op.err))
					}
				}
				if op.kind == 'w' {
					rep.Writes++
					writes[op.path] = append(writes[op.path], op.wr)
				}
			}
		}
		for client, log := range logs {
			rep.Violations = append(rep.Violations,
				checkClientLog(client, log, writes, flushLag, propLag, o)...)
			for i := range log {
				if log[i].kind == 'r' {
					rep.Reads++
				}
			}
		}
		if v, err := checkFinalServerState(d, paths, writes, flushLag); err != nil {
			return nil, err
		} else {
			rep.Violations = append(rep.Violations, v...)
		}
	}

	// Attach the virtual-time span trace for every implicated path: a
	// violation message always names its path followed by a delimiter, so a
	// substring probe is enough to decide which files need dumping.
	implicated := func(p string) bool {
		if o.TraceAll {
			return true
		}
		for _, v := range rep.Violations {
			if strings.Contains(v, p+" ") || strings.Contains(v, p+":") {
				return true
			}
		}
		return false
	}
	for _, p := range paths {
		if !implicated(p) {
			continue
		}
		if spans, err := d.TraceForPath(p, traceSpans); err == nil {
			if rep.Traces == nil {
				rep.Traces = make(map[string]string)
			}
			rep.Traces[p] = obs.FormatSpans(spans, d.Obs.DroppedSpans())
		}
	}
	rep.Metrics = d.PublishMetrics()
	rep.Retransmits = rep.Metrics.SumCounters("gvfs_rpc_retransmits_total")
	rep.DRCHits = rep.Metrics.SumCounters("gvfs_rpc_drc_hits_total")
	rep.Sheds = rep.Metrics.SumCounters("gvfs_server_shed_total")
	rep.StalenessViolations = rep.Metrics.SumCounters("gvfs_staleness_violations_total")
	rep.Attribution = attr.FormatReport(d.Attribution(), 5)
	rep.DroppedSpans = d.Obs.DroppedSpans()

	rep.NetEvents = d.Net.Events()
	rep.NetStats = d.Net.TotalStats()
	for _, m := range mounts {
		s := m.Proxy.Stats()
		rep.ClientStats.LocalHits += s.LocalHits
		rep.ClientStats.Forwards += s.Forwards
		rep.ClientStats.Invalidations += s.Invalidations
		rep.ClientStats.ForceInvalidations += s.ForceInvalidations
		rep.ClientStats.Recalls += s.Recalls
		rep.ClientStats.FlushedBlocks += s.FlushedBlocks
		rep.ClientStats.UpstreamRetries += s.UpstreamRetries
		rep.ClientStats.FlushErrors += s.FlushErrors
		rep.ClientStats.ReadAheads += s.ReadAheads
		rep.ClientStats.AttrHits += s.AttrHits
		rep.ClientStats.DentryHits += s.DentryHits
		rep.ClientStats.NegLookupHits += s.NegLookupHits
		rep.ClientStats.AccessHits += s.AccessHits
		rep.ClientStats.ListingHits += s.ListingHits
		rep.ClientStats.MetaExpiries += s.MetaExpiries
		rep.ClientStats.MetaEvictions += s.MetaEvictions
		rep.ClientStats.PollCapped += s.PollCapped
		rep.ClientStats.RecoveredBlocks += s.RecoveredBlocks
		rep.ClientStats.RecoveredDirty += s.RecoveredDirty
		rep.ClientStats.RecoveryDropped += s.RecoveryDropped
		rep.ClientStats.RevalidatedBlocks += s.RevalidatedBlocks
		rep.ClientStats.RefetchedBlocks += s.RefetchedBlocks
	}
	rep.ServerStats = sess.ProxyServer().Stats()
	return rep, nil
}

// chaosClientLoop runs one client's random op schedule and records every
// operation with its virtual-time interval. restarts holds absolute virtual
// times at which this client warm-restarts: the proxy is killed without
// shutdown (Crash abandons the disk store in whatever mid-state it is in)
// and remounted from the same disk directory before the next op. The new
// mount is swapped into mounts[client] so the final stats sweep sees the
// live incarnation.
func chaosClientLoop(d *Deployment, sess *Session, mounts []*Mount, client int, o ChaosOptions, paths []string, restarts []time.Duration, mu *sync.Mutex, rep *ChaosReport) []chaosOp {
	r := rand.New(rand.NewSource(o.Seed + 1000*int64(client+1)))
	m := mounts[client]
	log := make([]chaosOp, 0, o.Steps)
	seq := 0
	for step := 0; step < o.Steps; step++ {
		if len(restarts) > 0 && d.Clock.Now() >= restarts[0] {
			restarts = restarts[1:]
			nm, err := sess.RemountFromDisk(m, nfsclient.Options{NoAC: true})
			mu.Lock()
			if err != nil {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("driver: warm-restart %s: %v", chaosHost(client), err))
			} else {
				rep.WarmRestarts++
			}
			mu.Unlock()
			if err == nil {
				m = nm
				mounts[client] = nm
			}
		}
		p := paths[r.Intn(len(paths))]
		op := chaosOp{path: p, start: d.Clock.Now()}
		switch roll := r.Intn(10); {
		case roll < 4: // whole-value overwrite at offset 0 (never truncates)
			seq++
			op.kind = 'w'
			op.val = chaosValue(client, seq, o.ValueSize)
			op.err = chaosWriteOp(m, p, op.val)
			op.end = d.Clock.Now()
			op.wr = &chaosWrite{
				client: client, seq: seq,
				start: op.start, end: op.end,
				failed: op.err != nil,
			}
		case roll < 8: // read
			op.kind = 'r'
			var data []byte
			data, op.err = m.Client.ReadFile(p)
			op.end = d.Clock.Now()
			op.val = string(data)
		default: // stat
			op.kind = 's'
			var attr, err = m.Client.Stat(p)
			op.err = err
			op.end = d.Clock.Now()
			op.size = attr.Size
		}
		log = append(log, op)
		d.Clock.Sleep(500*time.Millisecond + time.Duration(r.Int63n(int64(o.OpGap))))
	}
	return log
}

// chaosWriteOp overwrites p's full value in place. It must not use
// Client.WriteFile, which creates (and so truncates) the file: keeping the
// size fixed makes every access a single atomic RPC.
func chaosWriteOp(m *Mount, p, val string) error {
	f, err := m.Client.Open(p)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte(val), 0); err != nil {
		f.Close()
		return err
	}
	return f.Close() // Close syncs: the WRITE reaches the proxy here
}

// --- metadata chaos: namespace churn + existence checker --------------------

// chaosMetaDir holds the contended name pool in metadata mode.
const chaosMetaDir = "meta"

func chaosMetaName(i int) string { return fmt.Sprintf("%s/n%02d", chaosMetaDir, i) }

// chaosMetaGhosts is the number of names no client ever creates: probing
// them exercises the negative-lookup cache on every schedule.
const chaosMetaGhosts = 3

func chaosMetaGhost(i int) string { return fmt.Sprintf("%s/ghost%02d", chaosMetaDir, i) }

// chaosNameEvent records one state-establishing namespace operation on a
// name: a create/rename-in makes it exist, an unlink/rename-out removes it.
// Client -1 marks the initial server-side state. Failed ops are
// indeterminate: their effect may still have landed (the op's request can
// execute even when its reply is lost and retries surface an error), so
// they stay plausible establishers forever but never exclude anything.
type chaosNameEvent struct {
	client     int
	exists     bool
	start, end time.Duration
	failed     bool
}

// landEnd is the last virtual time at which e's effect can still reach the
// server: namespace ops are write-through, so only the RPC retry window —
// not a write-back flush — extends past the op's return.
func (e *chaosNameEvent) landEnd(nameLag time.Duration) time.Duration {
	if e.client < 0 {
		return e.start
	}
	return e.end + nameLag
}

// chaosMetaOp is one recorded metadata operation.
type chaosMetaOp struct {
	kind       byte   // 'c' create, 'u' unlink, 'm' rename, 'p' stat, 'a' access, 'd' readdir
	name       string // target (rename: source)
	dest       string // rename destination
	start, end time.Duration
	err        error
	probe      bool // op yielded a checkable existence observation
	observed   bool // the observation: does name exist?
	events     map[string]*chaosNameEvent
}

func isNoEnt(err error) bool {
	var ne *nfs3.Error
	return errors.As(err, &ne) && ne.Status == nfs3.ErrNoEnt
}

// chaosMetaClientLoop runs one client's random namespace schedule: ~25%
// exclusive creates, 20% unlinks, 15% renames, 30% stat/access probes, 10%
// readdir membership scans.
func chaosMetaClientLoop(d *Deployment, m *Mount, client int, o ChaosOptions, names []string) []chaosMetaOp {
	r := rand.New(rand.NewSource(o.Seed + 5000*int64(client+1)))
	log := make([]chaosMetaOp, 0, o.Steps)
	for step := 0; step < o.Steps; step++ {
		n := names[r.Intn(len(names))]
		op := chaosMetaOp{name: n, start: d.Clock.Now()}
		switch roll := r.Intn(20); {
		case roll < 5: // exclusive create
			op.kind = 'c'
			f, err := m.Client.Create(n, 0o644, true)
			if err == nil {
				err = f.Close()
			}
			op.err = err
			op.end = d.Clock.Now()
			op.events = map[string]*chaosNameEvent{n: {
				client: client, exists: true,
				start: op.start, end: op.end, failed: err != nil,
			}}
		case roll < 9: // unlink
			op.kind = 'u'
			op.err = m.Client.Remove(n)
			op.end = d.Clock.Now()
			op.events = map[string]*chaosNameEvent{n: {
				client: client, exists: false,
				start: op.start, end: op.end, failed: op.err != nil,
			}}
		case roll < 12: // rename: n vanishes, dest appears (replacing any old dest)
			op.kind = 'm'
			dst := names[r.Intn(len(names))]
			for dst == n {
				dst = names[r.Intn(len(names))]
			}
			op.dest = dst
			op.err = m.Client.Rename(n, dst)
			op.end = d.Clock.Now()
			failed := op.err != nil
			op.events = map[string]*chaosNameEvent{
				n:   {client: client, exists: false, start: op.start, end: op.end, failed: failed},
				dst: {client: client, exists: true, start: op.start, end: op.end, failed: failed},
			}
		case roll < 18: // existence probe via stat or access check
			if roll == 17 {
				// Ghost names are never created: their probes exercise the
				// negative-lookup cache regardless of how the schedule
				// churns the real pool.
				op.name = chaosMetaGhost(r.Intn(chaosMetaGhosts))
			}
			// Prime, then observe back-to-back: the first call fills the
			// dentry or negative cache so the recorded observation also
			// exercises the hit path.
			var err error
			if roll&1 == 0 {
				op.kind = 'p'
				m.Client.Stat(op.name)
				_, err = m.Client.Stat(op.name)
			} else {
				op.kind = 'a'
				m.Client.Access(op.name, nfs3.AccessRead)
				_, err = m.Client.Access(op.name, nfs3.AccessRead)
			}
			op.end = d.Clock.Now()
			switch {
			case err == nil:
				op.probe, op.observed = true, true
			case isNoEnt(err):
				op.probe, op.observed = true, false
			default:
				op.err = err // indeterminate
			}
		default: // readdir membership scan
			op.kind = 'd'
			entries, err := m.Client.ReadDir(chaosMetaDir)
			op.end = d.Clock.Now()
			if err != nil {
				op.err = err
			} else {
				op.probe = true
				base := strings.TrimPrefix(n, chaosMetaDir+"/")
				for _, e := range entries {
					if e == base {
						op.observed = true
						break
					}
				}
			}
		}
		log = append(log, op)
		d.Clock.Sleep(500*time.Millisecond + time.Duration(r.Int63n(int64(o.OpGap))))
	}
	return log
}

// checkMetaClientLog validates one client's existence observations. An
// observation S of a name over [ps, pe] is plausible iff some event w
// establishes S with w.start <= pe and w is not provably superseded: a
// successful anchor event a exists with a.start > w.landEnd where a is
// either this client's own earlier op (read-your-writes — the proxy
// applies namespace ops to its caches synchronously) or globally
// propagated (a.landEnd + propLag <= ps). Failed events never anchor and
// stay plausible forever, exactly as in the data checker.
func checkMetaClientLog(client int, log []chaosMetaOp, events map[string][]*chaosNameEvent, nameLag, propLag time.Duration) []string {
	var out []string
	ownAnchor := map[string]time.Duration{}
	anchorOf := func(n string, ps time.Duration) time.Duration {
		anchor := farPast
		if a, ok := ownAnchor[n]; ok && a > anchor {
			anchor = a
		}
		for _, e := range events[n] {
			if !e.failed && e.client >= 0 && e.landEnd(nameLag)+propLag <= ps && e.start > anchor {
				anchor = e.start
			}
		}
		return anchor
	}
	kindName := map[byte]string{'p': "stat", 'a': "access", 'd': "readdir"}
	for i := range log {
		op := &log[i]
		if op.err == nil {
			for n, e := range op.events {
				if e.start > ownAnchor[n] {
					ownAnchor[n] = e.start
				}
			}
		}
		if !op.probe {
			continue
		}
		anchor := anchorOf(op.name, op.start)
		plausible := false
		for _, e := range events[op.name] {
			if e.exists != op.observed || e.start > op.end {
				continue
			}
			if e.failed || e.landEnd(nameLag) >= anchor {
				plausible = true
				break
			}
		}
		if !plausible {
			out = append(out, fmt.Sprintf(
				"C%d %s %s at %v: observed exists=%v with no plausible establishing event (anchor %v)",
				client+1, kindName[op.kind], op.name, op.end, op.observed, anchor))
		}
	}
	return out
}

// checkFinalNameState verifies, after the drain, that each name's
// server-side existence is established by some event no successful
// opposite event provably supersedes.
func checkFinalNameState(d *Deployment, names []string, events map[string][]*chaosNameEvent, nameLag time.Duration) []string {
	var out []string
	for _, n := range names {
		_, err := d.FS.LookupPath(n)
		exists := err == nil
		plausible := false
		for _, e := range events[n] {
			if e.exists != exists {
				continue
			}
			if e.failed {
				plausible = true
				break
			}
			superseded := false
			for _, a := range events[n] {
				if !a.failed && a.exists != exists && a.start > e.landEnd(nameLag) {
					superseded = true
					break
				}
			}
			if !superseded {
				plausible = true
				break
			}
		}
		if !plausible {
			out = append(out, fmt.Sprintf(
				"final %s: server exists=%v but every establishing event is superseded", n, exists))
		}
	}
	return out
}

// checkClientLog validates one client's reads and stats against the
// per-model visibility rules, returning violation descriptions.
func checkClientLog(client int, log []chaosOp, writes map[string][]*chaosWrite, flushLag, propLag time.Duration, o ChaosOptions) []string {
	var out []string
	// Anchors per path: the start time of this client's own last
	// successful write (read-your-writes) and of the newest value it has
	// observed (monotonic reads). Ops are sequential per client, so every
	// earlier op ended before the current one started.
	ownAnchor := map[string]time.Duration{}
	seenAnchor := map[string]time.Duration{}
	anchorOf := func(p string, readStart time.Duration) time.Duration {
		anchor := farPast
		if a, ok := ownAnchor[p]; ok && a > anchor {
			anchor = a
		}
		if a, ok := seenAnchor[p]; ok && a > anchor {
			anchor = a
		}
		// Globally propagated writes exclude regardless of who reads.
		for _, w := range writes[p] {
			if !w.failed && w.client >= 0 && w.end+flushLag+propLag <= readStart && w.start > anchor {
				anchor = w.start
			}
		}
		return anchor
	}

	for i := range log {
		op := &log[i]
		switch op.kind {
		case 'w':
			if op.err == nil {
				if op.start > ownAnchor[op.path] {
					ownAnchor[op.path] = op.start
				}
			}
		case 's':
			if op.err == nil && op.size != uint64(o.ValueSize) {
				out = append(out, fmt.Sprintf(
					"C%d stat %s at %v: size %d, want fixed %d",
					client+1, op.path, op.end, op.size, o.ValueSize))
			}
		case 'r':
			if op.err != nil {
				continue // indeterminate
			}
			wc, seq, ok := parseChaosValue(op.val)
			if !ok {
				out = append(out, fmt.Sprintf(
					"C%d read %s at %v: unparseable value %q",
					client+1, op.path, op.end, op.val))
				continue
			}
			var w *chaosWrite
			for _, cand := range writes[op.path] {
				if cand.client == wc && cand.seq == seq {
					w = cand
					break
				}
			}
			if w == nil {
				out = append(out, fmt.Sprintf(
					"C%d read %s at %v: value (client %d, seq %d) was never written",
					client+1, op.path, op.end, wc, seq))
				continue
			}
			if w.start > op.end {
				out = append(out, fmt.Sprintf(
					"C%d read %s at %v: observed write (client %d, seq %d) from the future (starts %v)",
					client+1, op.path, op.end, wc, seq, w.start))
				continue
			}
			// Failed writes are indeterminate: their data may land at any
			// point (e.g. retried from a surviving cache), so they stay
			// plausible and are checked only against the future rule.
			if !w.failed {
				if anchor := anchorOf(op.path, op.start); w.flushEnd(flushLag) < anchor {
					out = append(out, fmt.Sprintf(
						"C%d read %s at %v: stale value (client %d, seq %d, flush deadline %v) superseded by a write at %v",
						client+1, op.path, op.end, wc, seq, w.flushEnd(flushLag), anchor))
					continue
				}
			}
			// Monotonic reads: this value was on the server no earlier
			// than w.start, so anything that must have flushed before then
			// can never be observed by this client again.
			if w.start > seenAnchor[op.path] {
				seenAnchor[op.path] = w.start
			}
		}
	}
	return out
}

// checkFinalServerState verifies, after the drain, that every path's
// server-side contents is some write not provably superseded.
func checkFinalServerState(d *Deployment, paths []string, writes map[string][]*chaosWrite, flushLag time.Duration) ([]string, error) {
	var out []string
	for _, p := range paths {
		attr, err := d.FS.LookupPath(p)
		if err != nil {
			return nil, fmt.Errorf("chaos: final lookup %s: %w", p, err)
		}
		buf := make([]byte, attr.Size)
		if attr.Size > 0 {
			if _, _, err := d.FS.ReadAt(attr.ID, buf, 0); err != nil {
				return nil, fmt.Errorf("chaos: final read %s: %w", p, err)
			}
		}
		wc, seq, ok := parseChaosValue(string(buf))
		if !ok {
			out = append(out, fmt.Sprintf("final %s: unparseable server value %q", p, buf))
			continue
		}
		var w *chaosWrite
		for _, cand := range writes[p] {
			if cand.client == wc && cand.seq == seq {
				w = cand
				break
			}
		}
		if w == nil {
			out = append(out, fmt.Sprintf("final %s: server value (client %d, seq %d) was never written", p, wc, seq))
			continue
		}
		for _, w2 := range writes[p] {
			if w2 != w && !w2.failed && w2.start > w.flushEnd(flushLag) {
				out = append(out, fmt.Sprintf(
					"final %s: server kept (client %d, seq %d) despite a write at %v after its flush deadline %v",
					p, wc, seq, w2.start, w.flushEnd(flushLag)))
				break
			}
		}
	}
	return out, nil
}
