package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// The two real-TCP workloads wire kernel client -> gvfs-proxyc ->
// gvfs-proxyd -> gvfs-nfsd over loopback TCP inside this process, exactly as
// the daemons' run functions do (polling model, 30 s window, worker pools of
// NumCPU*4, one obs registry of 4096 spans per node). Load comes from
// kernConns closed-loop kernel connections issuing NFS calls by hand.

const (
	kernConns  = 2  // one client machine running two processes
	setupRuns  = 5  // set-ups per run; setup_s is their median
	tcpWindows = 20 // ops_per_s and latencies are calm values over these
)

// Kernel-face operations a workload draws.
const (
	opRead = iota
	opGetattr
	opLookup
	opAccess
	opWriteFile // overwrite one output file as 32 KiB WRITEs, then COMMIT
)

type tcpSpec struct {
	name      string
	files     int // input tree: files of fileBytes each
	fileBytes int
	cache     int64 // proxy-client CacheBytes; 0 keeps the default
	writeBack bool
	// diskLeg adds, to traced runs, a leg with the persistent disk cache on
	// (sync policy "dirty", the daemon default with a directory).
	diskLeg  bool
	outputs  int // output files for opWriteFile
	outBytes int
	warmRead bool // read the whole input tree once during set-up
	warmOps  int  // mixed ops per connection run during set-up
	draw     func(r *rand.Rand) int
}

var tcpWarm = tcpSpec{
	name: "tcp-warm", files: 64, fileBytes: 256 << 10, warmRead: true,
	draw: func(r *rand.Rand) int {
		switch x := r.IntN(100); {
		case x < 50:
			return opRead
		case x < 75:
			return opGetattr
		case x < 90:
			return opLookup
		default:
			return opAccess
		}
	},
}

var tcpColdRW = tcpSpec{
	name: "tcp-cold-rw", files: 256, fileBytes: 256 << 10, cache: 8 << 20,
	writeBack: true, diskLeg: true, outputs: 16, outBytes: 128 << 10, warmOps: 400,
	draw: func(r *rand.Rand) int {
		if r.IntN(100) < 70 {
			return opRead
		}
		return opWriteFile
	},
}

// File IDs used by the content pattern: inputs count from 0, outputs from
// outputBase.
const outputBase = 1 << 20

func inputPath(i int) string  { return fmt.Sprintf("in/f%03d", i) }
func outputPath(i int) string { return fmt.Sprintf("out/o%02d", i) }

// chain is one in-process deployment of the three daemons plus the kernel
// connections.
type chain struct {
	regs   regs
	proxy  *core.ProxyClient
	psrv   *core.ProxyServer
	nfsRPC *sunrpc.Server
	kern   []*sunrpc.Client
	root   nfs3.FH
}

func startChain(spec *tcpSpec, fs *memfs.FS, diskDir string, tr *tracer) (_ *chain, err error) {
	var tn tcpnet.Net
	workers := runtime.NumCPU() * 4
	c := &chain{}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	listen := func() (transport.Listener, error) { return tn.Listen("127.0.0.1:0") }

	// gvfs-nfsd
	clkN := vclock.NewReal()
	oN := obs.New(clkN.Now, 4096)
	c.nfsRPC = sunrpc.NewServer(clkN)
	nfsserver.New(fs, 1).Register(c.nfsRPC)
	c.nfsRPC.SetObs(oN.Node("nfsd"), core.RPCName)
	c.nfsRPC.SetSched(sunrpc.SchedConfig{Workers: workers})
	nfsL, err := listen()
	if err != nil {
		return nil, err
	}
	c.nfsRPC.Serve(nfsL)

	// gvfs-proxyd
	clkD := vclock.NewReal()
	oD := obs.New(clkD.Now, 4096)
	dcfg := core.Config{
		Model: core.ModelPolling, PollPeriod: 30 * time.Second, DelegExpiry: 10 * time.Minute,
		ServerWorkers: workers, Obs: oD,
	}
	upN, err := tn.Dial(nfsL.Addr())
	if err != nil {
		return nil, err
	}
	c.psrv = core.NewProxyServer(clkD, dcfg,
		sunrpc.NewClient(clkD, tr.wrap(hopNFSD, upN), sunrpc.SysCred("gvfs-proxyd", 0, 0)),
		func(addr string) (transport.Conn, error) { return tn.Dial(addr) },
		&core.MemStateStore{})
	psL, err := listen()
	if err != nil {
		return nil, err
	}
	c.psrv.Serve(psL)

	// gvfs-proxyc
	clkC := vclock.NewReal()
	oC := obs.New(clkC.Now, 4096)
	ccfg := core.Config{
		Model: core.ModelPolling, PollPeriod: 30 * time.Second, WriteBack: spec.writeBack,
		ServerWorkers: workers, CacheBytes: spec.cache, Obs: oC, ObsName: "client-1",
	}
	if diskDir != "" {
		ccfg.DiskCacheDir, ccfg.DiskCacheSyncPolicy = diskDir, "dirty"
	}
	upD, err := tn.Dial(psL.Addr())
	if err != nil {
		return nil, err
	}
	cbL, err := listen()
	if err != nil {
		return nil, err
	}
	cred := core.SessionCred{SessionKey: "default", ClientID: "client-1", CallbackAddr: cbL.Addr()}
	c.proxy = core.NewProxyClient(clkC, ccfg, sunrpc.NewClient(clkC, tr.wrap(hopWAN, upD), sunrpc.NoneCred()), cred)
	if diskDir != "" {
		c.proxy.RecoverAfterCrash()
	}
	c.proxy.SetRedial(func() (*sunrpc.Client, error) {
		conn, err := tn.Dial(psL.Addr())
		if err != nil {
			return nil, err
		}
		return sunrpc.NewClient(clkC, tr.wrap(hopWAN, conn), sunrpc.NoneCred()), nil
	})
	pcL, err := listen()
	if err != nil {
		return nil, err
	}
	c.proxy.Serve(pcL, cbL)
	c.regs = regs{oN.Registry(), oD.Registry(), oC.Registry()}

	// Kernel connections.
	clkK := vclock.NewReal()
	for i := range kernConns {
		conn, err := tn.Dial(pcL.Addr())
		if err != nil {
			return nil, err
		}
		c.kern = append(c.kern, sunrpc.NewClient(clkK, tr.wrap(hopKern, conn), sunrpc.SysCred(fmt.Sprintf("workstation-%d", i), 0, 0)))
	}
	if c.root, err = nfscall.New(c.kern[0]).Mount("/export"); err != nil {
		return nil, fmt.Errorf("mount through the chain: %w", err)
	}
	return c, nil
}

func (c *chain) stop() {
	for _, k := range c.kern {
		k.Close()
	}
	if c.proxy != nil {
		c.proxy.Stop()
	}
	if c.psrv != nil {
		c.psrv.Stop()
	}
	if c.nfsRPC != nil {
		c.nfsRPC.Close()
	}
}

// publish folds point-in-time state into the registries and snapshots them.
func (c *chain) snapshot() regSnap {
	c.proxy.PublishMetrics()
	c.psrv.PublishMetrics()
	return c.regs.snapshot()
}

// tcpWorker is one closed-loop kernel connection.
type tcpWorker struct {
	id    int
	spec  *tcpSpec
	seed  uint64
	rpc   *sunrpc.Client
	rng   *rand.Rand
	tr    *tracer
	reqs  uint64
	buf   []byte
	dir   nfs3.FH
	fhs   []nfs3.FH
	names []string
	outs  []nfs3.FH
	owned []int    // output files only this connection writes
	next  []uint32 // last generation written, by output file
	done  []uint32 // last generation committed, or genUnknown

	wins      []window // the measured phase's windows; one outside it
	win       int      // current window
	winEnd    time.Time
	winDur    time.Duration
	wbytes    int64 // WRITE payload bytes since reset
	attempted int64
	failed    int64
	problems  []string
}

const genUnknown = ^uint32(0)

func (w *tcpWorker) fail(format string, args ...any) {
	w.failed++
	if len(w.problems) < 10 {
		w.problems = append(w.problems, fmt.Sprintf("conn %d: ", w.id)+fmt.Sprintf(format, args...))
	}
}

// reset starts n windows of d each at start.
func (w *tcpWorker) reset(start time.Time, d time.Duration, n int) {
	w.wins = make([]window, n)
	w.win, w.winDur, w.winEnd = 0, d, start.Add(d)
}

// call issues one NFS procedure the way nfscall does, tagging it with a
// fresh request ID while tracing is on.
func (w *tcpWorker) call(cls int, proc uint32, args interface{ Encode(*xdr.Encoder) }, res interface{ Decode(*xdr.Decoder) error }) error {
	var req uint64
	if w.tr != nil && w.tr.on.Load() {
		w.reqs++
		req = uint64(w.id+1)<<48 | w.reqs
	}
	t0 := time.Now()
	e := bufpool.GetEncoder()
	args.Encode(e)
	d, err := w.rpc.CallTraced(req, nfs3.Program, nfs3.Version, proc, e.Bytes(), 0)
	bufpool.PutEncoder(e)
	if err == nil {
		err = res.Decode(d)
	}
	t1 := time.Now()
	for w.win < len(w.wins)-1 && !t1.Before(w.winEnd) {
		w.win++
		w.winEnd = w.winEnd.Add(w.winDur)
	}
	cur := &w.wins[w.win]
	cur.lat[cls] = append(cur.lat[cls], int64(t1.Sub(t0)))
	cur.ops++
	cur.last = t1
	w.attempted++
	return err
}

func (w *tcpWorker) step(op int) {
	switch op {
	case opRead:
		w.read(w.rng.IntN(w.spec.files), w.rng.IntN(w.spec.fileBytes/blockSize))
	case opGetattr:
		w.getattr(w.rng.IntN(w.spec.files))
	case opLookup:
		w.lookup(w.rng.IntN(w.spec.files))
	case opAccess:
		w.access(w.rng.IntN(w.spec.files))
	case opWriteFile:
		w.writeFile(w.owned[w.rng.IntN(len(w.owned))])
	}
}

func (w *tcpWorker) read(f, blk int) {
	var r nfs3.ReadRes
	err := w.call(clsRead, nfs3.ProcRead, &nfs3.ReadArgs{FH: w.fhs[f], Offset: uint64(blk * blockSize), Count: blockSize}, &r)
	switch {
	case err != nil:
		w.fail("READ %s block %d: %v", inputPath(f), blk, err)
	case r.Status != nfs3.OK:
		w.fail("READ %s block %d: status %v", inputPath(f), blk, r.Status)
	case len(r.Data) != blockSize || !checkBlock(r.Data, w.seed, uint32(f), 0, blk):
		w.fail("READ %s block %d: wrong content (%d bytes)", inputPath(f), blk, len(r.Data))
	}
}

func (w *tcpWorker) getattr(f int) {
	var r nfs3.GetattrRes
	err := w.call(clsMeta, nfs3.ProcGetattr, &nfs3.GetattrArgs{FH: w.fhs[f]}, &r)
	switch {
	case err != nil:
		w.fail("GETATTR %s: %v", inputPath(f), err)
	case r.Status != nfs3.OK || r.Attr.Size != uint64(w.spec.fileBytes):
		w.fail("GETATTR %s: status %v size %d", inputPath(f), r.Status, r.Attr.Size)
	}
}

func (w *tcpWorker) lookup(f int) {
	var r nfs3.LookupRes
	err := w.call(clsMeta, nfs3.ProcLookup, &nfs3.DirOpArgs{Dir: w.dir, Name: w.names[f]}, &r)
	switch {
	case err != nil:
		w.fail("LOOKUP %s: %v", inputPath(f), err)
	case r.Status != nfs3.OK || r.FH != w.fhs[f]:
		w.fail("LOOKUP %s: status %v, handle %v", inputPath(f), r.Status, r.FH)
	}
}

func (w *tcpWorker) access(f int) {
	var r nfs3.AccessRes
	err := w.call(clsMeta, nfs3.ProcAccess, &nfs3.AccessArgs{FH: w.fhs[f], Access: nfs3.AccessRead | nfs3.AccessLookup}, &r)
	switch {
	case err != nil:
		w.fail("ACCESS %s: %v", inputPath(f), err)
	case r.Status != nfs3.OK || r.Access&nfs3.AccessRead == 0:
		w.fail("ACCESS %s: status %v, granted %#x", inputPath(f), r.Status, r.Access)
	}
}

// writeFile overwrites output o with its next generation, then commits.
func (w *tcpWorker) writeFile(o int) {
	w.next[o]++
	gen, fid := w.next[o], uint32(outputBase+o)
	ok := true
	for b := 0; b < w.spec.outBytes/blockSize; b++ {
		fillBlock(w.buf, w.seed, fid, gen, b)
		var r nfs3.WriteRes
		err := w.call(clsWrite, nfs3.ProcWrite, &nfs3.WriteArgs{
			FH: w.outs[o], Offset: uint64(b * blockSize), Count: blockSize, Stable: nfs3.Unstable, Data: w.buf,
		}, &r)
		w.wbytes += blockSize
		if err != nil || r.Status != nfs3.OK || r.Count != blockSize {
			w.fail("WRITE %s block %d: err %v status %v count %d", outputPath(o), b, err, r.Status, r.Count)
			ok = false
		}
	}
	var r nfs3.CommitRes
	if err := w.call(clsCommit, nfs3.ProcCommit, &nfs3.CommitArgs{FH: w.outs[o]}, &r); err != nil || r.Status != nfs3.OK {
		w.fail("COMMIT %s: err %v status %v", outputPath(o), err, r.Status)
		ok = false
	}
	w.done[o] = gen
	if !ok {
		w.done[o] = genUnknown
	}
}

// tcpBench is one set-up deployment with its load generators.
type tcpBench struct {
	spec    *tcpSpec
	seed    uint64
	fs      *memfs.FS
	chain   *chain
	workers []*tcpWorker
	diskDir string
	tr      *tracer
}

// setup builds the input tree, the chain and the connections, resolves every
// handle through the chain, and warms the caches as the spec asks.
func setupTCP(spec *tcpSpec, o options, tr *tracer, run int, disk bool) (*tcpBench, error) {
	b := &tcpBench{spec: spec, seed: o.seed, fs: memfs.New(vclock.NewReal().Now), tr: tr}
	for i := range spec.files {
		if _, err := b.fs.WriteFile(inputPath(i), fileContent(spec.fileBytes, o.seed, uint32(i), 0)); err != nil {
			return nil, err
		}
	}
	for i := range spec.outputs {
		if _, err := b.fs.WriteFile(outputPath(i), fileContent(spec.outBytes, o.seed, uint32(outputBase+i), 0)); err != nil {
			return nil, err
		}
	}
	if disk {
		b.diskDir = filepath.Join(o.outDir, fmt.Sprintf("diskcache-%s-%d", spec.name, run))
		if err := os.RemoveAll(b.diskDir); err != nil {
			return nil, err
		}
	}
	c, err := startChain(spec, b.fs, b.diskDir, tr)
	if err != nil {
		return nil, err
	}
	b.chain = c
	if err := b.resolve(); err != nil {
		b.stop()
		return nil, err
	}
	if spec.warmRead {
		w := b.workers[0]
		for f := range spec.files {
			w.getattr(f)
			w.access(f)
			for blk := range spec.fileBytes / blockSize {
				w.read(f, blk)
			}
		}
	}
	if spec.warmOps > 0 {
		b.parallel(func(w *tcpWorker) {
			for range spec.warmOps {
				w.step(spec.draw(w.rng))
			}
		})
	}
	return b, nil
}

// resolve looks up every file handle through the chain and creates the
// connections' load generators.
func (b *tcpBench) resolve() error {
	nc := nfscall.New(b.chain.kern[0])
	lookup := func(dir nfs3.FH, name string) (nfs3.FH, error) {
		r, err := nc.Lookup(dir, name)
		if err == nil && r.Status != nfs3.OK {
			err = fmt.Errorf("LOOKUP %s: %v", name, r.Status)
		}
		return r.FH, err
	}
	in, err := lookup(b.chain.root, "in")
	if err != nil {
		return err
	}
	fhs := make([]nfs3.FH, b.spec.files)
	names := make([]string, b.spec.files)
	for i := range fhs {
		names[i] = filepath.Base(inputPath(i))
		if fhs[i], err = lookup(in, names[i]); err != nil {
			return err
		}
	}
	outs := make([]nfs3.FH, b.spec.outputs)
	if b.spec.outputs > 0 {
		out, err := lookup(b.chain.root, "out")
		if err != nil {
			return err
		}
		for i := range outs {
			if outs[i], err = lookup(out, filepath.Base(outputPath(i))); err != nil {
				return err
			}
		}
	}
	for i, rpc := range b.chain.kern {
		w := &tcpWorker{
			id: i, spec: b.spec, seed: b.seed, rpc: rpc, tr: b.tr,
			rng: rand.New(rand.NewPCG(b.seed, uint64(i))),
			buf: make([]byte, blockSize), dir: in, fhs: fhs, names: names, outs: outs,
			next: make([]uint32, b.spec.outputs), done: make([]uint32, b.spec.outputs),
		}
		w.reset(time.Now(), time.Hour, 1)
		for o := i; o < b.spec.outputs; o += kernConns {
			w.owned = append(w.owned, o)
		}
		b.workers = append(b.workers, w)
	}
	return nil
}

func (b *tcpBench) parallel(fn func(w *tcpWorker)) {
	var wg sync.WaitGroup
	for _, w := range b.workers {
		wg.Add(1)
		go func(w *tcpWorker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// phase runs every connection's closed loop for d, split into n equal
// windows, and returns each window's ops and latencies over all
// connections.
func (b *tcpBench) phase(d time.Duration, n int) []window {
	start := time.Now()
	for _, w := range b.workers {
		w.reset(start, d/time.Duration(n), n)
		w.wbytes = 0
	}
	deadline := start.Add(d)
	b.parallel(func(w *tcpWorker) {
		for time.Now().Before(deadline) {
			w.step(w.spec.draw(w.rng))
		}
	})
	wins := make([]window, n)
	wins[0].start = start
	for _, w := range b.workers {
		for k := range wins {
			if w.wins[k].last.After(wins[k].last) {
				wins[k].last = w.wins[k].last
			}
			wins[k].ops += w.wins[k].ops
			for c := range wins[k].lat {
				wins[k].lat[c] = append(wins[k].lat[c], w.wins[k].lat[c]...)
			}
		}
	}
	for _, w := range b.workers {
		w.reset(time.Now(), time.Hour, 1)
	}
	return wins
}

// verifyOutputs reads every committed output file back from the NFS
// server's filesystem and compares it with its last committed generation.
func (b *tcpBench) verifyOutputs(res *result) {
	for _, w := range b.workers {
		for _, o := range w.owned {
			gen := w.done[o]
			if gen == genUnknown {
				continue // its failed op is already counted
			}
			res.Attempted++
			attr, err := b.fs.LookupPath(outputPath(o))
			if err != nil {
				res.fail("server copy of %s: %v", outputPath(o), err)
				continue
			}
			data := make([]byte, b.spec.outBytes)
			n, _, err := b.fs.ReadAt(attr.ID, data, 0)
			if err != nil || n != len(data) || attr.Size != uint64(len(data)) {
				res.fail("server copy of %s: %d of %d bytes, %v", outputPath(o), n, attr.Size, err)
				continue
			}
			for blk := 0; blk*blockSize < len(data); blk++ {
				if !checkBlock(data[blk*blockSize:(blk+1)*blockSize], b.seed, uint32(outputBase+o), gen, blk) {
					res.fail("server copy of %s block %d: holds generation %d, last committed %d",
						outputPath(o), blk, blockGen(data[blk*blockSize:]), gen)
					break
				}
			}
		}
	}
}

func (b *tcpBench) stop() {
	b.chain.stop()
	if b.diskDir != "" {
		_ = os.RemoveAll(b.diskDir) // scratch space; a leftover is harmless
	}
}

func runTCP(spec tcpSpec, o options) (*result, error) {
	res := &result{Workload: spec.name}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The first set-up is the one measured. The others follow the
	// measurement, so their (stopped) deployments never share its heap.
	heap0 := liveHeap()
	start := time.Now()
	b, err := setupTCP(&spec, o, tr, 0, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(start).Seconds()}
	defer func() {
		if b != nil {
			b.stop()
		}
	}()

	dur := time.Duration(o.seconds * float64(time.Second))
	base := "kernel-face RPC"
	var untracedRate float64
	if o.trace {
		// First half untraced, second half traced: the difference in
		// throughput is the tracing overhead.
		dur /= 2
		untracedRate = phaseRate(b.phase(dur, 1))
		tr.on.Store(true)
	}
	p0, r0 := sampleProc(), b.chain.snapshot()
	wins := b.phase(dur, tcpWindows)
	p1, r1 := sampleProc(), b.chain.snapshot()
	tr.stopRecording()
	var ops, commits int64
	for _, w := range wins {
		ops += w.ops
		commits += int64(len(w.lat[clsCommit]))
	}
	if ops == 0 {
		return nil, fmt.Errorf("no op completed in %v", dur)
	}
	if o.trace {
		rate := phaseRate(wins)
		res.add(metric{Name: "trace.untraced_ops_per_s", Unit: "1/s", Value: untracedRate})
		res.add(metric{Name: "trace.traced_ops_per_s", Unit: "1/s", Value: rate})
		// Tracing overhead: traced minus untraced, negative when tracing
		// costs throughput.
		res.add(metric{Name: "trace.ops_per_s_delta", Unit: "1/s", Value: rate - untracedRate})
		tr.addMetrics(res, ops, base)
	} else {
		// A window's rate runs from the previous window's last op to its own.
		rates := make([]float64, len(wins))
		prev := wins[0].start
		for k, w := range wins {
			if w.ops > 0 {
				rates[k] = float64(w.ops) / w.last.Sub(prev).Seconds()
				prev = w.last
			}
		}
		res.add(metric{Name: "ops_per_s", Unit: "1/s", Value: calm(rates, true), Samples: int(ops)})
		addLatencies(res, "", wins)
		res.add(metric{Name: "live_heap_mb", Unit: "MB", Value: heapMB(liveHeap() - heap0 - ownBytes(wins))})
	}
	addProcMetrics(res, p0, p1, ops, base)
	addRegistryMetrics(res, r0, r1, ops, commits, base)
	b.collect(res)
	b.stop()
	b = nil
	if o.trace && spec.diskLeg {
		if err := diskLeg(&spec, o, res); err != nil {
			return nil, err
		}
	} else {
		res.add(metric{Name: "diskcache.wchar_per_user_byte", Unit: "ratio", Value: 0, Base: "disk cache off"})
		res.add(metric{Name: "diskcache.space_bytes", Unit: "B", Value: 0})
	}
	for i := 1; i < setupRuns; i++ {
		start := time.Now()
		extra, err := setupTCP(&spec, o, nil, i, false)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		extra.stop()
	}
	res.add(metric{Name: "setup_s", Unit: "s", Value: medianFloat(setups), Samples: len(setups)})
	res.add(metric{Name: "error_rate", Unit: "ratio", Value: float64(res.Failed) / float64(res.Attempted), Base: "op or check attempted"})

	res.Env = append(envRecord("loopback TCP, daemons in one process"), res.Env...)
	if o.trace {
		path := filepath.Join(o.outDir, spec.name+"-spans.tsv")
		if err := tr.dump(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.Env = append(res.Env, "spans="+path)
	}
	return res, nil
}

// phaseRate is the throughput of a whole phase: its ops over the time from
// its start to the end of its last op.
func phaseRate(wins []window) float64 {
	var ops int64
	var last time.Time
	for _, w := range wins {
		ops += w.ops
		if w.last.After(last) {
			last = w.last
		}
	}
	return float64(ops) / last.Sub(wins[0].start).Seconds()
}

// collect adds the connections' op counts and failures to res and checks
// the committed output files.
func (b *tcpBench) collect(res *result) {
	for _, w := range b.workers {
		res.Attempted += w.attempted
		res.Failed += w.failed
		res.Problems = append(res.Problems, w.problems...)
	}
	b.verifyOutputs(res)
	if n := b.chain.regs.snapshot().sum("gvfs_client_disk_cache_errors_total"); n > 0 {
		res.fail("disk cache reported %d errors", n)
	}
}

// diskLeg runs the workload once more, for a short phase, with the proxy
// client's persistent disk cache on. Its throughput and latencies follow the
// machine's disk (fsync and file churn on a filesystem other tenants share)
// and spread too widely between runs to gate, so they are reported as
// per-layer diskcache.* metrics of the traced run only.
func diskLeg(spec *tcpSpec, o options, res *result) error {
	b, err := setupTCP(spec, o, nil, setupRuns, true)
	if err != nil {
		return fmt.Errorf("disk-cache set-up: %w", err)
	}
	defer b.stop()
	d := min(time.Duration(o.seconds*float64(time.Second))/2, 4*time.Second)
	p0 := sampleProc()
	wins := b.phase(d, 1)
	p1 := sampleProc()
	res.add(metric{Name: "diskcache.ops_per_s", Unit: "1/s", Value: phaseRate(wins), Samples: int(wins[0].ops)})
	addLatencies(res, "diskcache.", wins)
	var wbytes int64
	for _, w := range b.workers {
		wbytes += w.wbytes
	}
	wchar := 0.0
	if wbytes > 0 && p0.wchar >= 0 {
		wchar = float64(p1.wchar-p0.wchar) / float64(wbytes)
	}
	res.add(metric{Name: "diskcache.wchar_per_user_byte", Unit: "ratio", Value: wchar, Base: "WRITE payload byte"})
	res.add(metric{Name: "diskcache.space_bytes", Unit: "B", Value: float64(dirBytes(b.diskDir))})
	res.Env = append(res.Env, "disk_cache_fs="+fsType(o.outDir)+" (disk latency is this filesystem's, not a device's)")
	b.collect(res)
	return nil
}
