package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/gvfs"
	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
)

// wan-shared runs the gvfs facade on the paper's simulated WAN (40 ms RTT,
// 4 Mbps) in virtual time. One deployment hosts two sessions — "poll"
// (invalidation polling, 30 s window, write-through) and "deleg"
// (delegation with write-back) — each mounted on two client hosts that share
// the session's tree. Every client runs a seeded closed loop of stats,
// whole-file reads and overwrite-and-close.
//
// One run repeats the simulation until the measured seconds are used up,
// the first time with the run's seed and then with seeds derived from it.
// A simulation repeats its protocol counts exactly for a seed, so the
// virtual-time numbers and counts come from the first repetition; the
// wall-clock ones are taken over all of them (best-quarter values, medians
// or per-op sums), which averages over many op sequences. The latency metrics under the common
// names (read_p50_us, ...) are wall-clock, the simulator's cost per op; the
// virtual-time latencies are reported as virtual.*.

const (
	wanFiles     = 32
	wanFileBytes = 64 << 10
	wanOps       = 1000 // closed-loop ops per client per simulation
)

type wanSession struct {
	name string
	cfg  core.Config
	base uint32 // file-ID offset of the session's tree in the pattern
	gens [wanFiles]atomic.Uint32
}

type wanClient struct {
	host string
	sess *wanSession
	m    *gvfs.Mount
	rng  *rand.Rand
	seed uint64
	buf  []byte

	vlat, wlat [nClasses][]int64 // virtual and wall latencies
	ops        int64
	failed     int64
	problems   []string
}

func (c *wanClient) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, c.host+": "+fmt.Sprintf(format, args...))
	}
}

func wanPath(s *wanSession, f int) string { return fmt.Sprintf("%s/f%02d", s.name, f) }

// checkFile accepts a file whose every block is some generation of the
// right file no newer than the last one written: concurrent writers make
// any interleaving of whole blocks legitimate, but not torn, foreign or
// invented blocks.
func checkFile(data []byte, seed uint64, s *wanSession, f int) error {
	if len(data) != wanFileBytes {
		return fmt.Errorf("%d bytes, want %d", len(data), wanFileBytes)
	}
	newest := s.gens[f].Load()
	for blk := 0; blk*blockSize < len(data); blk++ {
		b := data[blk*blockSize : (blk+1)*blockSize]
		gen := blockGen(b)
		if gen > newest || !checkBlock(b, seed, s.base+uint32(f), gen, blk) {
			return fmt.Errorf("block %d is not a written generation (header gen %d, newest %d)", blk, gen, newest)
		}
	}
	return nil
}

func (c *wanClient) loop(d *gvfs.Deployment) {
	kc := c.m.Client
	for range wanOps {
		f := c.rng.IntN(wanFiles)
		path := wanPath(c.sess, f)
		x := c.rng.IntN(100)
		v0, w0 := d.Clock.Now(), time.Now()
		cls := clsMeta
		switch {
		case x < 40:
			attr, err := kc.Stat(path)
			if err != nil || attr.Size != wanFileBytes {
				c.fail("stat %s: size %d, %v", path, attr.Size, err)
			}
		case x < 80:
			cls = clsRead
			data, err := kc.ReadFile(path)
			if err == nil {
				err = checkFile(data, c.seed, c.sess, f)
			}
			if err != nil {
				c.fail("read %s: %v", path, err)
			}
		default:
			cls = clsWrite
			gen := c.sess.gens[f].Add(1)
			for off := 0; off < wanFileBytes; off += blockSize {
				fillBlock(c.buf[off:off+blockSize], c.seed, c.sess.base+uint32(f), gen, off/blockSize)
			}
			if err := overwrite(kc, path, c.buf); err != nil {
				c.fail("overwrite %s: %v", path, err)
			}
		}
		c.vlat[cls] = append(c.vlat[cls], int64(d.Clock.Now()-v0))
		c.wlat[cls] = append(c.wlat[cls], int64(time.Since(w0)))
		c.ops++
	}
}

func overwrite(kc *nfsclient.Client, path string, data []byte) error {
	f, err := kc.Open(path)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wanRep is one simulation: set-up, the closed loops, and the checks.
type wanRep struct {
	setup, wall, virt time.Duration
	ops, kernRPCs     int64
	kernCommits       int64
	proc              procSample // process-wide deltas over the closed loops
	r0, r1            regSnap
	liveMB            float64
	clients           []*wanClient
	checked, failed   int64
	problems          []string
}

func runWANRep(o options, keepTrace string) (*wanRep, error) {
	rep := &wanRep{}
	heap0 := liveHeap()
	start := time.Now()
	d, err := gvfs.NewDeployment(gvfs.Config{})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	sessions := []*wanSession{
		{name: "poll", cfg: core.Config{Model: core.ModelPolling, PollPeriod: 30 * time.Second}, base: 0},
		{name: "deleg", cfg: core.Config{Model: core.ModelDelegation, WriteBack: true}, base: 100},
	}
	for _, s := range sessions {
		for f := range wanFiles {
			if _, err := d.FS.WriteFile(wanPath(s, f), fileContent(wanFileBytes, o.seed, s.base+uint32(f), 0)); err != nil {
				return nil, err
			}
		}
	}
	// The paper's kernel clients: attribute cache revalidated every 30 s.
	kopts := nfsclient.Options{AttrMin: 3 * time.Second, AttrMax: 30 * time.Second}
	d.Run("setup", func() {
		for _, s := range sessions {
			sess, e := d.NewSession(s.name, s.cfg)
			if e != nil {
				err = e
				return
			}
			for i := range 2 {
				host := fmt.Sprintf("%s-%d", s.name, i+1)
				m, e := sess.Mount(host, kopts)
				if e != nil {
					err = e
					return
				}
				rep.clients = append(rep.clients, &wanClient{
					host: host, sess: s, m: m, seed: o.seed, buf: make([]byte, wanFileBytes),
					rng: rand.New(rand.NewPCG(o.seed, uint64(len(rep.clients)))),
				})
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.setup = time.Since(start)

	// Kernel-face RPCs: every call and the COMMITs among them.
	kern := func() (all, commits int64) {
		for _, c := range rep.clients {
			for k, v := range c.m.Client.Conn().RPC().Counts() {
				all += v
				if k == uint64(nfs3.Program)<<32|nfs3.ProcCommit {
					commits += v
				}
			}
		}
		return all, commits
	}
	reg := regs{d.Obs.Registry()}
	d.PublishMetrics()
	rep.r0 = reg.snapshot()
	k0, c0 := kern()
	p0 := sampleProc()
	v0, w0 := d.Clock.Now(), time.Now()
	d.Run("load", func() {
		g := d.NewGroup()
		for _, c := range rep.clients {
			g.Go("client-"+c.host, func() { c.loop(d) })
		}
		g.Wait()
	})
	rep.wall, rep.virt = time.Since(w0), d.Clock.Now()-v0
	p1 := sampleProc()
	d.PublishMetrics()
	rep.r1 = reg.snapshot()
	k1, c1 := kern()
	rep.kernRPCs, rep.kernCommits = k1-k0, c1-c0
	rep.proc = p1.sub(p0)
	var own int64
	for _, c := range rep.clients {
		rep.ops += c.ops
		rep.failed += c.failed
		rep.problems = append(rep.problems, c.problems...)
		for cls := range c.vlat {
			own += int64(cap(c.vlat[cls])+cap(c.wlat[cls])) * 8
		}
	}
	rep.liveMB = heapMB(liveHeap() - heap0 - own)
	if v := rep.r1.sum("gvfs_staleness_violations_total"); v != 0 {
		rep.failed++
		rep.problems = append(rep.problems, fmt.Sprintf("staleness oracle counted %d violations", v))
	}
	if keepTrace != "" {
		if err := writeTraceDump(d, keepTrace); err != nil {
			return nil, err
		}
	}
	d.Close() // unmounts: write-back data lands on the server

	// Every file the server now holds must be made of written generations.
	for _, s := range sessions {
		for f := range wanFiles {
			rep.checked++
			attr, err := d.FS.LookupPath(wanPath(s, f))
			if err == nil {
				data := make([]byte, attr.Size)
				if _, _, err = d.FS.ReadAt(attr.ID, data, 0); err == nil {
					err = checkFile(data, o.seed, s, f)
				}
			}
			if err != nil {
				rep.failed++
				rep.problems = append(rep.problems, fmt.Sprintf("server copy of %s: %v", wanPath(s, f), err))
			}
		}
	}
	for _, c := range rep.clients {
		c.m = nil // keep only the samples; the deployment can go
	}
	return rep, nil
}

// window merges the clients' latencies, as picked by lat, into one window.
func (r *wanRep) window(lat func(*wanClient) *[nClasses][]int64) window {
	w := window{ops: r.ops}
	for _, c := range r.clients {
		for cls, l := range lat(c) {
			w.lat[cls] = append(w.lat[cls], l...)
		}
	}
	return w
}

func writeTraceDump(d *gvfs.Deployment, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteTraceDump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sub returns the counter deltas from o to s.
func (s procSample) sub(o procSample) procSample {
	return procSample{
		mallocs: s.mallocs - o.mallocs, allocB: s.allocB - o.allocB,
		gcCPU: s.gcCPU - o.gcCPU, totalCPU: s.totalCPU - o.totalCPU,
		rusageCPU: s.rusageCPU - o.rusageCPU, wchar: s.wchar - o.wchar, pool: s.pool - o.pool,
	}
}

func (s procSample) plus(o procSample) procSample {
	return procSample{
		mallocs: s.mallocs + o.mallocs, allocB: s.allocB + o.allocB,
		gcCPU: s.gcCPU + o.gcCPU, totalCPU: s.totalCPU + o.totalCPU,
		rusageCPU: s.rusageCPU + o.rusageCPU, wchar: s.wchar + o.wchar, pool: s.pool + o.pool,
	}
}

func runWAN(o options) (*result, error) {
	res := &result{Workload: "wan-shared"}
	budget := time.Duration(o.seconds * float64(time.Second))
	var reps []*wanRep
	g0 := runtime.NumGoroutine()
	for start := time.Now(); len(reps) == 0 || time.Since(start) < budget; {
		trace := ""
		if o.trace && len(reps) == 0 {
			trace = filepath.Join(o.outDir, "wan-shared-trace.json")
		}
		ro := o
		if len(reps) > 0 {
			ro.seed = mix(o.seed + uint64(len(reps)))
		}
		rep, err := runWANRep(ro, trace)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		// Let the finished deployment's goroutines exit, so that the next
		// repetition's heap baseline does not still hold it.
		for end := time.Now().Add(time.Second); runtime.NumGoroutine() > g0 && time.Now().Before(end); {
			time.Sleep(5 * time.Millisecond)
		}
	}
	first := reps[0]
	base := "application op (stat, whole-file read or overwrite-and-close)"

	// Wall-clock numbers: medians over the repetitions, sums for per-op costs.
	var setups, rates, lives []float64
	var wins []window // one per repetition
	var acc procSample
	var ops int64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		lives = append(lives, r.liveMB)
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
		wins = append(wins, r.window(func(c *wanClient) *[nClasses][]int64 { return &c.wlat }))
		acc = acc.plus(r.proc)
		ops += r.ops
		res.Attempted += r.ops + r.checked
		res.Failed += r.failed
		res.Problems = append(res.Problems, r.problems...)
	}
	res.add(metric{Name: "setup_s", Unit: "s", Value: medianFloat(setups), Samples: len(setups)})
	res.add(metric{Name: "ops_per_s", Unit: "1/s", Value: calm(rates, true), Samples: len(rates)})
	addLatencies(res, "", wins)
	addProcMetrics(res, procSample{}, acc, ops, base)
	res.add(metric{Name: "live_heap_mb", Unit: "MB", Value: medianFloat(lives), Samples: len(lives)})
	res.add(metric{Name: "sim.wall_us_per_op", Unit: "us", Value: float64(sumWall(reps)) / 1e3 / float64(ops), Base: base})

	// Virtual-time numbers and protocol counts: the first repetition.
	addLatencies(res, "virtual.", []window{first.window(func(c *wanClient) *[nClasses][]int64 { return &c.vlat })})
	n := float64(first.ops)
	res.add(metric{Name: "virtual_runtime_s", Unit: "s", Value: first.virt.Seconds()})
	res.add(metric{Name: "kernel_rpcs_per_op", Unit: "count", Value: float64(first.kernRPCs) / n, Base: base})
	addRegistryMetrics(res, first.r0, first.r1, first.ops, first.kernCommits, base)
	res.add(metric{Name: "diskcache.wchar_per_user_byte", Unit: "ratio", Value: 0, Base: "disk cache off"})
	res.add(metric{Name: "diskcache.space_bytes", Unit: "B", Value: 0})
	for _, hop := range hopNames {
		res.add(metric{Name: "tcpnet." + hop + ".msgs_per_op", Unit: "count", Value: 0, Base: "no TCP on this workload"})
		res.add(metric{Name: "tcpnet." + hop + ".bytes_per_op", Unit: "B", Value: 0, Base: "no TCP on this workload"})
	}
	res.add(metric{Name: "error_rate", Unit: "ratio", Value: float64(res.Failed) / float64(res.Attempted), Base: "op or check attempted"})

	res.Env = append(envRecord("virtual time on simnet.WAN (40 ms RTT, 4 Mbps), one process"),
		fmt.Sprintf("simulations=%d (the first with seed %d), %d clients x %d ops each", len(reps), o.seed, len(first.clients), wanOps))
	var stale []string
	for name, v := range first.r1[0].Counters {
		if seriesFamily(name) == "gvfs_staleness_violations_total" {
			stale = append(stale, fmt.Sprintf("%s=%d", name, v))
		}
	}
	slices.Sort(stale)
	res.Env = append(res.Env, stale...)
	return res, nil
}

func sumWall(reps []*wanRep) time.Duration {
	var t time.Duration
	for _, r := range reps {
		t += r.wall
	}
	return t
}
