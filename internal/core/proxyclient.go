package core

import (
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/diskcache"
	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// ProxyClient is the GVFS user-level proxy on a compute node. The unmodified
// kernel NFS client mounts it over loopback; the proxy serves what it can
// from its per-session disk cache and forwards the rest across the wide
// area to the proxy server, maintaining consistency with the session's
// configured protocol.
type ProxyClient struct {
	clk  *vclock.Clock
	cfg  Config
	cred SessionCred

	cache *sessionCache
	// disk is the crash-consistent persistent block store mirroring the
	// session cache (nil when Config.DiskCacheDir is unset, or when the
	// store failed to open and the proxy degraded to memory-only).
	disk *diskcache.Store
	srv  *sunrpc.Server
	// cbSrv serves the GVFS callback program on its own server so the
	// bounded scheduling pool applies to recall traffic without ever
	// shedding or queueing the kernel's loopback NFS calls (the kernel
	// client has no TRY_LATER retransmit path).
	cbSrv *sunrpc.Server
	// redial re-establishes the upstream connection after a failure
	// (server restart, healed partition); nil disables reconnection.
	redial func() (*sunrpc.Client, error)

	mu           sync.Mutex
	up           *sunrpc.Client
	accum        map[uint64]int64 // upstream RPC counts from closed connections
	delegs       map[string]DelegType
	noncacheable map[string]bool
	lastForward  map[string]time.Duration
	recallFence  map[string]uint64             // FH key -> seq of the latest recall served
	lastRead     map[string]uint64             // FH key -> last block read (sequential detection)
	flushWait    map[string][]*vclock.Waiter   // FH key -> waiters for in-flight flushes
	fetchWait    map[fetchKey][]*vclock.Waiter // block -> waiters for an in-flight prefetch
	lastInvTS    uint64
	pollWindow   time.Duration
	stopped      bool
	// pollHorizon is the staleness observatory's freshness horizon under the
	// polling model: the send time of the latest GETINV round whose
	// pre-round invalidations have all been applied to this cache (see the
	// pollCover accounting in pollOnce). Every remote commit at or before
	// it has been applied here, so serving data older than such a commit is
	// a genuine bound violation. The horizon only ever claims what the
	// invalidation channel actually delivered: rounds a capped or failed
	// poll left uncovered do not advance it.
	pollHorizon time.Duration

	// Background write-backs triggered by recalls with large dirty sets.
	// Each recall used to spawn its own flush actor, so a recall storm (a
	// flood of conflicting requests during a flush) meant unbounded
	// concurrent flushers; the FIFO bounds them at recallFlushWorkers
	// drainers. recallFlushMax records the concurrency high-water for the
	// regression test.
	recallFlushQ   []recallFlushReq
	recallFlushers int
	recallFlushMax int

	// node records this proxy's trace spans; met holds its registry series.
	// Counters are the single source of truth — ProxyClientStats is now a
	// view assembled from them (see Stats).
	node *obs.Node
	met  *clientMetrics
}

// ProxyClientStats counts proxy-client activity for the evaluation harness.
type ProxyClientStats struct {
	// LocalHits are kernel RPCs answered from the disk cache without any
	// wide-area traffic — the calls the paper's figures show disappearing.
	LocalHits int64
	// Forwards are kernel RPCs that crossed the wide area.
	Forwards int64
	// Invalidations is the number of handles invalidated via GETINV.
	Invalidations int64
	// ForceInvalidations counts whole-cache invalidations.
	ForceInvalidations int64
	// Recalls counts delegation callbacks served.
	Recalls int64
	// FlushedBlocks counts dirty blocks written back.
	FlushedBlocks int64
	// UpstreamRetries counts upstream call attempts that failed at the RPC
	// layer (timeout or connection loss) and were retried or abandoned.
	UpstreamRetries int64
	// FlushErrors counts dirty-block write-backs that failed with an NFS
	// error (e.g. the file was removed); the block is dropped.
	FlushErrors int64
	// ReadAheads counts blocks prefetched by the sequential readahead
	// pipeline (each is one wide-area READ the kernel never waited a full
	// round-trip for).
	ReadAheads int64

	// Metadata fast path: local serves broken out by cache. AttrHits are
	// GETATTRs answered from the attribute cache, DentryHits positive
	// LOOKUPs, NegLookupHits cached NOENTs, AccessHits permission checks
	// computed from cached attributes, ListingHits READDIRs served from a
	// cached complete listing.
	AttrHits      int64
	DentryHits    int64
	NegLookupHits int64
	AccessHits    int64
	ListingHits   int64
	// MetaExpiries counts TTL expirations, MetaEvictions capacity evictions
	// in the metadata caches.
	MetaExpiries  int64
	MetaEvictions int64

	// PollCapped counts GETINV polls abandoned at the round cap.
	PollCapped int64

	// Disk-cache recovery accounting. RecoveredBlocks (of which
	// RecoveredDirty were dirty) survived the last restart intact;
	// RecoveryDropped were discarded during replay (torn tail, CRC
	// mismatch, missing block file). RevalidatedBlocks were recovered clean
	// blocks whose file's first post-restart server attribute observation
	// confirmed them unchanged; RefetchedBlocks were dropped by the normal
	// mtime reconciliation instead.
	RecoveredBlocks   int64
	RecoveredDirty    int64
	RecoveryDropped   int64
	RevalidatedBlocks int64
	RefetchedBlocks   int64
}

// fetchKey identifies one block of one file for prefetch coordination.
type fetchKey struct {
	fh string
	bn uint64
}

// recallFlushReq is one queued background write-back (recall with a large
// dirty set); rid is the recall's trace ID so the flush WRITEs join its
// causal chain.
type recallFlushReq struct {
	rid uint64
	fh  nfs3.FH
}

// recallFlushWorkers bounds concurrent background recall flushers; the
// per-file WRITE pipelining inside flushFile already provides parallelism,
// so a small pool drains a storm without flooding the upstream link.
const recallFlushWorkers = 2

// queueRecallFlush schedules a background write-back of fh's remaining dirty
// blocks, starting a drainer actor only while fewer than recallFlushWorkers
// are running. A flush already queued for the same file is coalesced: one
// flushFile pass writes back every dirty block the file has by then.
func (p *ProxyClient) queueRecallFlush(rid uint64, fh nfs3.FH) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	for _, r := range p.recallFlushQ {
		if r.fh.Key() == fh.Key() {
			p.mu.Unlock()
			return
		}
	}
	p.recallFlushQ = append(p.recallFlushQ, recallFlushReq{rid: rid, fh: fh})
	if p.recallFlushers >= recallFlushWorkers {
		p.mu.Unlock()
		return
	}
	p.recallFlushers++
	if p.recallFlushers > p.recallFlushMax {
		p.recallFlushMax = p.recallFlushers
	}
	p.mu.Unlock()
	p.clk.Go("gvfs-recall-flush:"+p.cred.ClientID, p.drainRecallFlushes)
}

// drainRecallFlushes runs queued background flushes until the FIFO empties,
// then exits (the next recall restarts a drainer).
func (p *ProxyClient) drainRecallFlushes() {
	for {
		p.mu.Lock()
		if len(p.recallFlushQ) == 0 || p.stopped {
			p.recallFlushers--
			p.mu.Unlock()
			return
		}
		req := p.recallFlushQ[0]
		p.recallFlushQ = p.recallFlushQ[1:]
		p.mu.Unlock()
		p.flushFile(req.rid, req.fh, 0, false)
	}
}

// RecallFlushHighWater reports the peak number of concurrent background
// recall flushers observed, for tests asserting the bound.
func (p *ProxyClient) RecallFlushHighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recallFlushMax
}

// NewProxyClient builds a proxy client over an established upstream RPC
// connection (to the proxy server, or directly to an NFS server for
// pass-through operation). The session credential is attached to every
// upstream call.
func NewProxyClient(clk *vclock.Clock, cfg Config, upstream *sunrpc.Client, cred SessionCred) *ProxyClient {
	cfg = cfg.withDefaults()
	upstream.SetCred(cred.Encode())
	p := &ProxyClient{
		clk:          clk,
		cfg:          cfg,
		cred:         cred,
		up:           upstream,
		accum:        make(map[uint64]int64),
		cache:        newSessionCache(cfg.BlockSize, cfg.CacheBytes),
		srv:          sunrpc.NewServer(clk),
		cbSrv:        sunrpc.NewServer(clk),
		delegs:       make(map[string]DelegType),
		noncacheable: make(map[string]bool),
		lastForward:  make(map[string]time.Duration),
		recallFence:  make(map[string]uint64),
		lastRead:     make(map[string]uint64),
		flushWait:    make(map[string][]*vclock.Waiter),
		fetchWait:    make(map[fetchKey][]*vclock.Waiter),
		pollWindow:   cfg.PollPeriod,
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New(clk.Now, 1024)
	}
	name := cfg.ObsName
	if name == "" {
		name = cred.ClientID
	}
	p.node = o.Node("proxyc:" + name)
	p.met = newClientMetrics(o.Registry(), name)
	cfg.Staleness.Register(shortModel(cfg.Model))
	p.cache.setMetaPolicy(clk.Now, cfg.metaPolicy(), p.met.metaCounters())
	if cfg.DiskCacheDir != "" {
		p.openDiskCache()
	}
	// Upstream call spans (the wide-area round trips) are recorded at this
	// proxy's node, nested under the kernel request via the shared ID.
	upstream.SetObs(p.node, RPCName)
	cfg.applyRetransmit(upstream)
	p.srv.SetDRCSize(cfg.DRCEntries)
	p.srv.Register(nfs3.Program, nfs3.Version, p.dispatchNFS)
	p.srv.Register(nfs3.MountProgram, nfs3.MountVersion, p.dispatchMount)
	// The callback service must be replay-safe too: a recall the server
	// retransmits may not flush (or fence) twice. It also runs behind the
	// bounded scheduling pool (rate limits elided — see callbackSchedConfig)
	// so a recall storm cannot spawn unbounded handlers.
	p.cbSrv.SetDRCSize(cfg.DRCEntries)
	p.cbSrv.SetSched(cfg.callbackSchedConfig())
	p.cbSrv.Register(CallbackProgram, CallbackVersion, p.dispatchCallback)
	return p
}

// SetRedial installs a reconnection function used when the upstream
// connection fails: both NFS forwards and GETINV polls transparently retry
// on a fresh connection, the "simply retried" recovery of Section 4.2.3.
func (p *ProxyClient) SetRedial(redial func() (*sunrpc.Client, error)) {
	p.redial = redial
}

func (p *ProxyClient) upstream() *sunrpc.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up
}

// reconnect swaps in a fresh upstream connection if old is still current.
func (p *ProxyClient) reconnect(old *sunrpc.Client) bool {
	if p.redial == nil {
		return false
	}
	p.mu.Lock()
	current := p.up
	p.mu.Unlock()
	if current != old {
		// Another actor already redialed: this call most likely failed
		// because that actor closed the old client, at this same instant.
		// Let the redialing actor retry first, so the two retries reach
		// the new connection in the same order in every same-seed run.
		p.clk.Yield()
		return true
	}
	nu, err := p.redial()
	if err != nil {
		return false
	}
	nu.SetCred(p.cred.Encode())
	nu.SetObs(p.node, RPCName)
	p.cfg.applyRetransmit(nu)
	p.mu.Lock()
	if p.up != old {
		p.mu.Unlock()
		nu.Close()
		return true
	}
	for k, v := range old.Counts() {
		p.accum[k] += v
	}
	p.up = nu
	p.mu.Unlock()
	old.Close()
	return true
}

// rawCall issues one upstream RPC with reconnect-and-retry on failure. rid
// is the trace request ID propagated from the kernel call that caused this
// RPC; 0 lets the upstream client mint one (background traffic).
func (p *ProxyClient) rawCall(rid uint64, prog, vers, proc uint32, args []byte) (*xdr.Decoder, error) {
	for attempt := 0; ; attempt++ {
		up := p.upstream()
		d, err := up.CallTraced(rid, prog, vers, proc, args, p.cfg.CallTimeout)
		if err == nil {
			return d, nil
		}
		p.met.upstreamRetries.Inc()
		p.mu.Lock()
		stopped := p.stopped
		p.mu.Unlock()
		if stopped || attempt >= 2 {
			return nil, err
		}
		if !p.reconnect(up) {
			p.clk.Sleep(time.Second)
			if !p.reconnect(up) {
				return nil, err
			}
		}
	}
}

// Serve starts serving kernel NFS traffic on nfsListener and GVFS callbacks
// on cbListener, and launches the session's maintenance actors.
func (p *ProxyClient) Serve(nfsListener, cbListener transport.Listener) {
	p.srv.Serve(nfsListener)
	if cbListener != nil {
		p.cbSrv.Serve(cbListener)
	}
	if p.cfg.Model == ModelPolling {
		p.clk.GoDaemon("gvfs-poll:"+p.cred.ClientID, p.pollLoop)
	}
	if p.cfg.WriteBack || p.cfg.Model == ModelDelegation {
		p.clk.GoDaemon("gvfs-flush:"+p.cred.ClientID, p.flushLoop)
	}
}

// RecoverAfterCrash models the proxy client restarting with its disk cache
// intact: it invalidates all cached attributes to force revalidation and
// attempts to write back one block per dirty file to reconcile conflicts
// and reacquire delegations (Section 4.3.4). Files whose write-back fails
// with a conflict have their dirty data discarded as corrupted.
func (p *ProxyClient) RecoverAfterCrash() {
	p.cache.invalidateAllAttrs()
	p.mu.Lock()
	p.delegs = make(map[string]DelegType)
	p.mu.Unlock()
	for _, fh := range p.cache.dirtyFiles() {
		blocks := p.cache.dirtyBlocks(fh)
		if len(blocks) == 0 {
			continue
		}
		if err := p.flushBlock(0, fh, blocks[0]); err != nil {
			p.cache.dropDirty(fh)
		}
	}
}

// Stop halts the proxy and closes its connections. Dirty data is flushed
// first on a best-effort basis.
func (p *ProxyClient) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.mu.Unlock()
	p.flushAll(0)
	if p.disk != nil {
		// The flushed MarkClean records are already journaled; Close folds
		// them into a final compacting checkpoint.
		if err := p.disk.Close(); err != nil {
			p.met.diskCacheErrors.Inc()
		}
	}
	p.srv.Close()
	p.cbSrv.Close()
	p.upstream().Close()
}

// Crash models an abrupt proxy-client failure: connections drop and no
// dirty data is flushed. Only the disk store's journal survives; a new
// instance opened on the same DiskCacheDir recovers from it, and its
// RecoverAfterCrash writes the surviving dirty blocks back.
func (p *ProxyClient) Crash() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	if p.disk != nil {
		// SIGKILL-equivalent: no checkpoint, no final syncs. Whatever the
		// journal already holds is what recovery will see — and the store
		// goes inert so straggling actors of this incarnation cannot write
		// into a journal a restarted proxy may have reopened.
		p.disk.Abandon()
	}
	p.srv.Close()
	p.cbSrv.Close()
	p.upstream().Close()
}

// Stats returns a snapshot of proxy activity counters. The counters live in
// the obs registry; this remains as a typed view over them.
func (p *ProxyClient) Stats() ProxyClientStats {
	return ProxyClientStats{
		LocalHits:          p.met.localHits.Value(),
		Forwards:           p.met.forwards.Value(),
		Invalidations:      p.met.invalidations.Value(),
		ForceInvalidations: p.met.forceInvalidations.Value(),
		Recalls:            p.met.recalls.Value(),
		FlushedBlocks:      p.met.flushedBlocks.Value(),
		UpstreamRetries:    p.met.upstreamRetries.Value(),
		FlushErrors:        p.met.flushErrors.Value(),
		ReadAheads:         p.met.readAheads.Value(),
		AttrHits:           p.met.attrHits.Value(),
		DentryHits:         p.met.dentryHits.Value(),
		NegLookupHits:      p.met.negHits.Value(),
		AccessHits:         p.met.accessHits.Value(),
		ListingHits:        p.met.listingHits.Value(),
		MetaExpiries:       p.met.metaExpiries.Value(),
		MetaEvictions:      p.met.metaEvictions.Value(),
		PollCapped:         p.met.pollCapped.Value(),
		RecoveredBlocks:    p.met.recoveredBlocks.Value(),
		RecoveredDirty:     p.met.recoveredDirty.Value(),
		RecoveryDropped:    p.met.recoveryDropped.Value(),
		RevalidatedBlocks:  p.met.revalidatedBlks.Value(),
		RefetchedBlocks:    p.met.refetchedBlks.Value(),
	}
}

// PublishMetrics folds point-in-time state (cache occupancy, wide-area RPC
// totals) into the obs registry. Deployments call it before scraping a
// snapshot; counters and histograms need no publishing, they update live.
func (p *ProxyClient) PublishMetrics() {
	s := p.cache.stats()
	p.met.cacheAttrs.Set(int64(s.Attrs))
	p.met.cacheLookups.Set(int64(s.Lookups))
	p.met.cacheFiles.Set(int64(s.Files))
	p.met.cacheBytes.Set(s.Bytes)
	if reg := p.node.Registry(); reg != nil {
		base := obs.Label("gvfs_client_wan_calls_total", "node", p.node.Name())
		for k, v := range p.UpstreamCounts() {
			c := reg.Counter(obs.Label(base, "op", RPCName(uint32(k>>32), uint32(k))))
			c.Add(v - c.Value()) // publish the monotonic total, idempotently
		}
	}
}

// UpstreamCounts returns wide-area RPCs sent, keyed by prog<<32|proc,
// accumulated across reconnections. The live connection's counts are folded
// in under the same lock that guards reconnection, so a concurrent reconnect
// (which moves those counts into accum) can never be observed twice.
func (p *ProxyClient) UpstreamCounts() map[uint64]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[uint64]int64, len(p.accum))
	for k, v := range p.accum {
		out[k] = v
	}
	for k, v := range p.up.Counts() {
		out[k] += v
	}
	return out
}

// CacheStats reports disk cache occupancy.
func (p *ProxyClient) CacheStats() (attrs, lookups, files int, bytes int64) {
	s := p.cache.stats()
	return s.Attrs, s.Lookups, s.Files, s.Bytes
}

// --- maintenance actors ---------------------------------------------------

// pollLoop is the invalidation-polling client side (Section 4.2.1): poll the
// proxy server's GETINV within the configured window, optionally with
// exponential back-off.
func (p *ProxyClient) pollLoop() {
	// Offset the bootstrap poll slightly so it never shares a virtual
	// instant with session setup traffic on the same link: concurrent
	// same-instant sends race for bandwidth-serialization order, which
	// would make traces diverge between runs of the same seed.
	p.clk.Sleep(pollBootstrapDelay)
	// Bootstrap: the first GETINV carries a null timestamp and obtains the
	// session's initial logical timestamp (Section 4.2.2).
	p.pollOnce()
	for {
		p.clk.Sleep(p.currentWindow())
		p.mu.Lock()
		stopped := p.stopped
		p.mu.Unlock()
		if stopped {
			return
		}
		gotAny, err := p.pollOnce()
		if err != nil {
			continue // server unreachable; soft state, just poll again
		}
		p.adjustWindow(gotAny)
	}
}

func (p *ProxyClient) currentWindow() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pollWindow
}

func (p *ProxyClient) adjustWindow(gotInvalidations bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.PollBackoffMax <= p.cfg.PollPeriod {
		return // fixed window
	}
	if gotInvalidations {
		p.pollWindow = p.cfg.PollPeriod
		return
	}
	p.pollWindow *= 2
	if p.pollWindow > p.cfg.PollBackoffMax {
		p.pollWindow = p.cfg.PollBackoffMax
	}
}

// pollBootstrapDelay staggers the poll loop's first GETINV away from mount
// traffic issued at the same virtual instant.
const pollBootstrapDelay = 1300 * time.Microsecond

// maxPollRounds bounds one poll's GETINV loop: a healthy server drains its
// invalidation buffer (at most InvBufferEntries handles, overflow collapses
// to a single force-invalidate reply) in about InvBufferEntries /
// MaxHandlesPerReply rounds, so anything far beyond that is a buggy or
// replayed response stream setting PollAgain forever.
func (p *ProxyClient) maxPollRounds() int {
	rounds := p.cfg.InvBufferEntries/p.cfg.MaxHandlesPerReply + 2
	if rounds < 4 {
		rounds = 4
	}
	return rounds
}

// pollCover tracks one GETINV round's freshness-horizon debt: the round
// sent at sentAt is fully covered once need more handles have been
// delivered (the server's Remaining count at reply time, paid down by every
// subsequent round's deliveries).
type pollCover struct {
	sentAt time.Duration
	need   int64
}

// pollOnce issues GETINV calls until the buffer is drained, applying the
// client-side algorithm of Section 4.2.1. All GETINVs of one poll round
// share a request ID minted at this proxy.
func (p *ProxyClient) pollOnce() (gotAny bool, err error) {
	rid := p.node.Mint()
	var covers []pollCover
	for rounds := 0; ; rounds++ {
		if rounds >= p.maxPollRounds() {
			// Give up on this poll; the next window starts a fresh drain.
			p.met.pollCapped.Inc()
			return gotAny, nil
		}
		p.mu.Lock()
		ts := p.lastInvTS
		p.mu.Unlock()

		args := GetInvArgs{Timestamp: ts, MaxHandles: uint32(p.cfg.MaxHandlesPerReply)}
		e := bufpool.GetEncoder()
		args.Encode(e)
		// The round's send time is the staleness horizon candidate: any
		// commit at or before it is queued in the server's invalidation
		// buffer before the server processes this GETINV, so a complete
		// drain proves this cache has seen every such commit.
		sentAt := p.clk.Now()
		d, callErr := p.rawCall(rid, InvProgram, InvVersion, ProcGetInv, e.Bytes())
		bufpool.PutEncoder(e)
		if callErr != nil {
			return gotAny, callErr
		}
		var res GetInvRes
		if decErr := res.Decode(d); decErr != nil {
			return gotAny, decErr
		}

		// 1) Update the last known server timestamp.
		p.mu.Lock()
		p.lastInvTS = res.Timestamp
		p.mu.Unlock()

		p.met.getinvBatch.Observe(int64(len(res.Handles)))
		switch {
		case res.ForceInvalidate:
			// 2) Invalidate the entire attributes cache.
			p.cache.invalidateAllAttrs()
			p.met.forceInvalidations.Inc()
			gotAny = true
		default:
			// 3) Invalidate the concerned files. Directories flush their
			// cached name resolutions too: GETINV carries no names, so every
			// binding observed under the old contents is suspect.
			for _, fh := range res.Handles {
				p.cache.invalidateHandle(fh)
				p.cfg.Staleness.ObservePropagation("poll", fh.Key())
			}
			if len(res.Handles) > 0 {
				gotAny = true
				p.met.invalidations.Add(int64(len(res.Handles)))
			}
		}
		// Freshness-horizon accounting. A round sent at sentAt is covered
		// once every invalidation queued before it has been applied here —
		// at most res.Remaining further handles (entries queued after
		// sentAt inflate that count; they never deflate it, so the
		// accounting only errs conservative). Later rounds' deliveries pay
		// down earlier rounds' debts, so even a poll that ultimately hits
		// the round cap advances the horizon for the rounds it fully
		// covered — the horizon no longer freezes under sustained churn.
		delivered := int64(len(res.Handles))
		for i := range covers {
			covers[i].need -= delivered
		}
		need := int64(res.Remaining)
		if res.ForceInvalidate || !res.PollAgain {
			// A force reply just dropped everything the cache could have
			// served stale; a complete drain has nothing left queued.
			// Either way this round and every earlier one are covered.
			need = 0
			for i := range covers {
				covers[i].need = 0
			}
		}
		covers = append(covers, pollCover{sentAt: sentAt, need: need})
		var adv time.Duration
		kept := covers[:0]
		for _, c := range covers {
			if c.need <= 0 {
				if c.sentAt > adv {
					adv = c.sentAt
				}
			} else {
				kept = append(kept, c)
			}
		}
		covers = kept
		if adv > 0 {
			p.mu.Lock()
			if adv > p.pollHorizon {
				p.pollHorizon = adv
			}
			p.mu.Unlock()
		}
		// 4) Poll again immediately if the buffer did not fit.
		if !res.PollAgain {
			return gotAny, nil
		}
	}
}

// PollHorizon reports the polling model's current freshness horizon, for
// tests pinning the cover accounting.
func (p *ProxyClient) PollHorizon() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pollHorizon
}

// flushLoop periodically writes back dirty blocks.
func (p *ProxyClient) flushLoop() {
	for {
		p.clk.Sleep(p.cfg.FlushInterval)
		p.mu.Lock()
		stopped := p.stopped
		p.mu.Unlock()
		if stopped {
			return
		}
		p.flushAll(0)
	}
}

func (p *ProxyClient) flushAll(rid uint64) {
	var items []flushItem
	for _, fh := range p.cache.dirtyFiles() {
		for _, bn := range p.cache.dirtyBlocks(fh) {
			items = append(items, flushItem{fh: fh, bn: bn})
		}
	}
	p.flushParallel(rid, items)
}

// flushFile writes back every dirty block of fh, then waits until no flush
// of fh remains in flight — its own or a concurrent actor's — so callers
// (SETATTR truncation, COMMIT, recalls) may order upstream operations after
// the write-back. When skip is set, skipBn was already flushed by the
// caller.
func (p *ProxyClient) flushFile(rid uint64, fh nfs3.FH, skipBn uint64, skip bool) {
	var items []flushItem
	for _, bn := range p.cache.dirtyBlocks(fh) {
		if skip && bn == skipBn {
			continue
		}
		items = append(items, flushItem{fh: fh, bn: bn})
	}
	p.flushParallel(rid, items)
	p.waitFlushIdle(fh)
}

// flushItem is one dirty block queued for write-back.
type flushItem struct {
	fh nfs3.FH
	bn uint64
}

// flushParallel writes back the given dirty blocks with up to
// Config.FlushParallelism WRITE RPCs in flight at once, so N blocks cost
// about N/W round-trips. Blocks another actor is already flushing are
// skipped (takeDirty refuses them), so concurrent flushers never
// double-issue a WRITE; the per-block dirty-generation protocol keeps
// re-dirtied blocks dirty regardless of completion order.
func (p *ProxyClient) flushParallel(rid uint64, items []flushItem) {
	w := p.cfg.FlushParallelism
	if w > len(items) {
		w = len(items)
	}
	if w <= 1 {
		for _, it := range items {
			p.flushBlock(rid, it.fh, it.bn)
		}
		return
	}
	var mu sync.Mutex
	next := 0
	g := p.clk.NewGroup()
	for i := 0; i < w; i++ {
		g.Go("gvfs-flush-worker", func() {
			for {
				mu.Lock()
				if next >= len(items) {
					mu.Unlock()
					return
				}
				it := items[next]
				next++
				mu.Unlock()
				p.flushBlock(rid, it.fh, it.bn)
			}
		})
	}
	g.Wait()
}

// flushDone clears a block's in-flight mark and wakes actors draining the
// file's flushes.
func (p *ProxyClient) flushDone(fh nfs3.FH, bn uint64) {
	p.cache.endFlush(fh, bn)
	key := fh.Key()
	p.mu.Lock()
	ws := p.flushWait[key]
	delete(p.flushWait, key)
	p.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

// waitFlushIdle blocks (through the clock) until no flush of fh is in
// flight. The common case — nothing in flight — allocates no waiter.
func (p *ProxyClient) waitFlushIdle(fh nfs3.FH) {
	key := fh.Key()
	for {
		if !p.cache.flushInFlight(fh) {
			return
		}
		w := p.clk.NewWaiter()
		p.mu.Lock()
		if !p.cache.flushInFlight(fh) {
			p.mu.Unlock()
			return
		}
		p.flushWait[key] = append(p.flushWait[key], w)
		p.mu.Unlock()
		p.clk.WaitAs(w, "flush drain")
	}
}

// flushBlock writes dirty data starting at bn upstream as one WRITE. Adjacent
// dirty blocks are coalesced into the same RPC up to Config.MaxWriteBytes
// (takeDirtyRun), so a sequentially dirtied file flushes in a handful of
// large WRITEs instead of one per block; with MaxWriteBytes == BlockSize the
// run is exactly one block and the legacy per-block pipeline is preserved.
// Blocks another flusher already staged are refused by takeDirtyRun, so
// per-block flush queues and coalesced runs never double-issue a WRITE. The
// flush-pipeline depth gauge tracks WRITEs between takeDirtyRun and
// completion, so a scrape mid-flush shows how deep the write-back pipeline
// runs.
func (p *ProxyClient) flushBlock(rid uint64, fh nfs3.FH, bn uint64) error {
	data, off, bns, gens, ok := p.cache.takeDirtyRun(fh, bn, p.cfg.MaxWriteBytes)
	if !ok {
		return nil
	}
	// The staging buffer is pool-owned; the WRITE payload is copied into the
	// outgoing call message before callUpstream returns, so it recycles here.
	defer bufpool.Put(data)
	p.met.flushInflight.Add(1)
	defer p.met.flushInflight.Add(-1)
	defer func() {
		for _, b := range bns {
			p.flushDone(fh, b)
		}
	}()
	if p.cfg.DiskDelay > 0 {
		p.clk.Sleep(p.cfg.DiskDelay) // read the dirty run back from disk
	}
	if len(bns) > 1 {
		p.met.coalescedWrites.Inc()
	}
	args := nfs3.WriteArgs{FH: fh, Offset: off, Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}
	var res nfs3.WriteRes
	if _, err := p.callUpstream(rid, nfs3.ProcWrite, &args, &res); err != nil {
		return err
	}
	if res.Status != nfs3.OK {
		// The write-back target is gone or rejecting writes (e.g. removed
		// behind our back): keeping the block dirty would retry forever.
		// Drop it, as the paper drops "corrupted" dirty data (Section 4.3.4).
		p.cache.dropDirty(fh)
		p.met.flushErrors.Inc()
		return &nfs3.Error{Status: res.Status, Proc: nfs3.ProcWrite}
	}
	for i, b := range bns {
		p.cache.flushed(fh, b, gens[i], res.Wcc)
	}
	p.met.flushedBlocks.Add(int64(len(bns)))
	return nil
}

// --- upstream helpers -------------------------------------------------------

type wireEnc interface{ Encode(*xdr.Encoder) }
type wireDec interface{ Decode(*xdr.Decoder) error }

// callUpstream forwards one NFS call across the wide area and extracts the
// GVFS trailers the proxy server piggybacks on the reply (absent when the
// upstream is a plain NFS server).
func (p *ProxyClient) callUpstream(rid uint64, proc uint32, args wireEnc, res wireDec) (Trailers, error) {
	// The args encoder is pooled: rawCall copies them into the outgoing call
	// message before blocking for the reply, so recycling on return is safe.
	e := bufpool.GetEncoder()
	defer bufpool.PutEncoder(e)
	if args != nil {
		args.Encode(e)
	}
	start := p.node.Now()
	d, err := p.rawCall(rid, nfs3.Program, nfs3.Version, proc, e.Bytes())
	p.met.forwardLatency.ObserveDuration(p.node.Now() - start)
	if err != nil {
		return nil, err
	}
	if err := res.Decode(d); err != nil {
		return nil, err
	}
	var ts Trailers
	if d.Remaining() > 0 {
		if ts, err = DecodeTrailers(d); err != nil {
			ts = nil
		}
	}
	for _, tr := range ts {
		p.applyTrailer(tr)
	}
	return ts, nil
}

func (p *ProxyClient) applyTrailer(tr Trailer) {
	if tr.FH.IsZero() {
		return
	}
	key := tr.FH.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.Model == ModelDelegation {
		if tr.Deleg != DelegNone && tr.Seq <= p.recallFence[key] {
			// The grant raced with (and lost to) a recall for a concurrent
			// destructive operation: honoring it would cache revoked state.
			// Drop it; the next access simply forwards.
			tr.Deleg = DelegNone
			tr.Cacheable = false
		}
		p.delegs[key] = tr.Deleg
	}
	p.noncacheable[key] = !tr.Cacheable
	p.lastForward[key] = p.clk.Now()
}

// mapIdentity rewrites settable attributes per the session's cross-domain
// identity mapping.
func (p *ProxyClient) mapIdentity(attr *nfs3.Sattr) {
	if attr.UID != nil {
		if mapped, ok := p.cfg.UIDMap[*attr.UID]; ok {
			v := mapped
			attr.UID = &v
		}
	}
	if attr.GID != nil {
		if mapped, ok := p.cfg.GIDMap[*attr.GID]; ok {
			v := mapped
			attr.GID = &v
		}
	}
}

// noteForward records that a request for fh bypassed the cache (renewal
// bookkeeping).
func (p *ProxyClient) noteForward(fh nfs3.FH) {
	p.mu.Lock()
	p.lastForward[fh.Key()] = p.clk.Now()
	p.mu.Unlock()
}

// servable reports whether fh's cached state may answer requests locally
// under the session's consistency model, and whether this particular access
// should instead bypass the cache to renew a delegation.
func (p *ProxyClient) servable(fh nfs3.FH) bool {
	key := fh.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.noncacheable[key] {
		return false
	}
	switch p.cfg.Model {
	case ModelDelegation:
		if p.delegs[key] == DelegNone {
			return false
		}
		// Renewal: let a request bypass the cache periodically so the
		// server sees the file as still open (Section 4.3.1).
		if p.clk.Now()-p.lastForward[key] >= p.cfg.DelegRenew {
			p.met.renewBypass.Inc()
			return false
		}
		return true
	default:
		// Polling: cached entries are valid until invalidated.
		return true
	}
}

// hasWriteDeleg reports whether writes may be absorbed locally.
func (p *ProxyClient) hasWriteDeleg(fh nfs3.FH) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delegs[fh.Key()] == DelegWrite && !p.noncacheable[fh.Key()]
}

// observeServe reports one cache-served read to the staleness observatory:
// fh's cached state, fetched into the cache at fetchedAt, just answered a
// kernel RPC locally. The freshness horizon is the model's guarantee at this
// instant — now under delegation (the hit path already proved a delegation is
// held, and a recall would have invalidated the entry synchronously), the
// last complete poll drain's send time under polling. Serves of files with
// buffered dirty data are skipped: the bytes served are this client's own.
func (p *ProxyClient) observeServe(fh nfs3.FH, fetchedAt time.Duration, ok bool) {
	so := p.cfg.Staleness
	if so == nil || !ok {
		return
	}
	if p.cache.hasDirty(fh) {
		return
	}
	var horizon time.Duration
	if p.cfg.Model == ModelDelegation {
		horizon = p.clk.Now()
	} else {
		p.mu.Lock()
		horizon = p.pollHorizon
		p.mu.Unlock()
	}
	so.ObserveServe(fh.Key(), p.cred.ClientID, shortModel(p.cfg.Model), fetchedAt, horizon)
}

// hitLocal counts a kernel RPC answered from the disk cache and annotates
// the serve span. A detail set earlier (e.g. "join" for a read that waited
// on an in-flight readahead) is kept.
func (p *ProxyClient) hitLocal(call *sunrpc.Call) {
	p.met.localHits.Inc()
	if call != nil && call.SpanDetail == "" {
		call.SpanDetail = "hit"
	}
}

// hitForward counts a kernel RPC that crossed the wide area.
func (p *ProxyClient) hitForward(call *sunrpc.Call) {
	p.met.forwards.Inc()
	if call != nil && call.SpanDetail == "" {
		call.SpanDetail = "forward"
	}
}

// --- kernel-facing NFS dispatch --------------------------------------------

func (p *ProxyClient) dispatchMount(call *sunrpc.Call) sunrpc.AcceptStat {
	// Forward MOUNT verbatim: the root handle comes from the real server.
	raw, err := p.rawCall(call.ReqID, nfs3.MountProgram, nfs3.MountVersion, call.Proc, call.Args.RestRef())
	if err != nil {
		return sunrpc.SystemErr
	}
	call.Reply.FixedOpaque(raw.RestRef())
	return sunrpc.Success
}

// ServeCall executes one NFSv3 call against the proxy exactly as the RPC
// server's dispatch does, span recording included. Callers construct a
// sunrpc.Call with Args positioned at the procedure arguments and Reply ready
// to receive results — the same contract a transport-delivered call meets.
// It exists so benchmarks (and embedders) can drive the real handler chain
// without a transport in between, e.g. to measure the warm block path's
// allocation profile in isolation.
func (p *ProxyClient) ServeCall(call *sunrpc.Call) sunrpc.AcceptStat {
	return p.dispatchNFS(call)
}

// dispatchNFS wraps serveNFS with a trace span: the proxy's view of each
// kernel RPC, carrying the handler's FH/detail/bytes annotations. The proxy's
// own sunrpc.Server records no generic spans (SetObs is not installed on it),
// so this is the single serve-side record per kernel call at this node.
func (p *ProxyClient) dispatchNFS(call *sunrpc.Call) sunrpc.AcceptStat {
	// The proxy records spans at its own node, not the RPC server's (which
	// has no tracer installed): announce that here so handlers compute their
	// span labels exactly when a retained record will carry them.
	call.Traced = p.node.Tracing()
	// A pure read re-executes harmlessly, so its reply skips the kernel-facing
	// DRC. The WAN-facing proxy server marks pure reads only under polling:
	// under delegation its READ and GETATTR replies carry grants, which a
	// retransmission must replay.
	call.Idempotent = nfs3.Idempotent(call.Proc)
	if !call.Traced {
		return p.serveNFS(call)
	}
	start := p.node.Now()
	stat := p.serveNFS(call)
	sp := obs.Span{
		Req:    call.ReqID,
		Op:     RPCName(nfs3.Program, call.Proc),
		FH:     call.SpanFH,
		Model:  shortModel(p.cfg.Model),
		Detail: call.SpanDetail,
		Bytes:  call.SpanBytes,
		Start:  start,
		End:    p.node.Now(),
	}
	if stat != sunrpc.Success {
		sp.Err = stat.String()
	}
	p.node.Record(sp)
	return stat
}

func (p *ProxyClient) serveNFS(call *sunrpc.Call) sunrpc.AcceptStat {
	if p.cfg.ProxyDelay > 0 {
		p.clk.Sleep(p.cfg.ProxyDelay)
	}
	switch call.Proc {
	case nfs3.ProcNull:
		return sunrpc.Success
	case nfs3.ProcGetattr:
		return p.getattr(call)
	case nfs3.ProcLookup:
		return p.lookup(call)
	case nfs3.ProcRead:
		return p.read(call)
	case nfs3.ProcWrite:
		return p.write(call)
	case nfs3.ProcSetattr:
		return p.setattr(call)
	case nfs3.ProcCreate:
		return p.create(call)
	case nfs3.ProcMkdir:
		return p.mkdir(call)
	case nfs3.ProcSymlink:
		return p.symlink(call)
	case nfs3.ProcRemove, nfs3.ProcRmdir:
		return p.unlink(call)
	case nfs3.ProcRename:
		return p.rename(call)
	case nfs3.ProcLink:
		return p.linkProc(call)
	case nfs3.ProcReaddir:
		return p.readdir(call)
	case nfs3.ProcReaddirplus:
		return p.readdirplus(call)
	case nfs3.ProcCommit:
		return p.commit(call)
	case nfs3.ProcAccess:
		return p.access(call)
	case nfs3.ProcReadlink, nfs3.ProcFsstat, nfs3.ProcFsinfo:
		return p.passthrough(call)
	default:
		return sunrpc.ProcUnavail
	}
}

func encodeReply(call *sunrpc.Call, res wireEnc) sunrpc.AcceptStat {
	res.Encode(call.Reply)
	return sunrpc.Success
}

func (p *ProxyClient) getattr(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.GetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	if call.Traced {
		call.SpanFH = args.FH.String()
	}
	if !p.cfg.DisableMetaCache && p.servable(args.FH) {
		if a, ok := p.cache.getAttr(args.FH); ok {
			p.met.attrHits.Inc()
			p.hitLocal(call)
			if p.cfg.Staleness != nil {
				st, sok := p.cache.attrStamp(args.FH)
				p.observeServe(args.FH, st, sok)
			}
			res := nfs3.GetattrRes{Status: nfs3.OK, Attr: a}
			res.Encode(call.Reply)
			return sunrpc.Success
		}
	}
	var res nfs3.GetattrRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcGetattr, &args, &res); err != nil {
		return encodeReply(call, &nfs3.GetattrRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.FH)
	switch res.Status {
	case nfs3.OK:
		p.cache.putAttr(args.FH, res.Attr)
	case nfs3.ErrStale:
		p.cache.forget(args.FH)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) lookup(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.DirOpArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.Dir.String()
	if !p.cfg.DisableMetaCache && p.servable(args.Dir) {
		if childFH, negative, ok := p.cache.getLookup(args.Dir, args.Name); ok {
			dirAttr, dirOK := p.cache.getAttr(args.Dir)
			if negative && dirOK {
				// A cached NOENT: the per-file checks the kernel keeps
				// issuing for absent names are filtered out locally.
				p.met.negHits.Inc()
				p.hitLocal(call)
				if p.cfg.Staleness != nil {
					st, sok := p.cache.lookupStamp(args.Dir, args.Name)
					p.observeServe(args.Dir, st, sok)
				}
				return encodeReply(call, &nfs3.LookupRes{
					Status:  nfs3.ErrNoEnt,
					DirAttr: nfs3.PostOpAttr{Present: true, Attr: dirAttr},
				})
			}
			if !negative && dirOK && p.servable(childFH) {
				// Under the strong model the child's attributes (and thus
				// the binding's continued existence) are only trustworthy
				// while a delegation on the child is held.
				if childAttr, ok2 := p.cache.getAttr(childFH); ok2 {
					p.met.dentryHits.Inc()
					p.hitLocal(call)
					if p.cfg.Staleness != nil {
						st, sok := p.cache.attrStamp(childFH)
						p.observeServe(childFH, st, sok)
					}
					return encodeReply(call, &nfs3.LookupRes{
						Status:  nfs3.OK,
						FH:      childFH,
						Attr:    nfs3.PostOpAttr{Present: true, Attr: childAttr},
						DirAttr: nfs3.PostOpAttr{Present: true, Attr: dirAttr},
					})
				}
			}
		}
	}
	var res nfs3.LookupRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcLookup, &args, &res); err != nil {
		return encodeReply(call, &nfs3.LookupRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.Dir)
	if res.DirAttr.Present {
		p.cache.putAttr(args.Dir, res.DirAttr.Attr)
	}
	switch res.Status {
	case nfs3.OK:
		if res.Attr.Present {
			p.cache.putAttr(res.FH, res.Attr.Attr)
		}
		p.cache.putLookup(args.Dir, args.Name, res.FH)
	case nfs3.ErrNoEnt:
		p.cache.putNegLookup(args.Dir, args.Name)
	default:
		p.cache.dropLookup(args.Dir, args.Name)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) read(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReadArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	if call.Traced {
		call.SpanFH = args.FH.String()
	}
	bs := uint64(p.cfg.BlockSize)
	bn := args.Offset / bs
	aligned := args.Offset%bs == 0 && uint64(args.Count) <= bs
	seq := p.noteRead(args.FH, bn)

	// Dirty blocks are always ours to serve.
	if aligned {
		// A readahead for this block may already be in flight: wait for it
		// rather than double-issuing the wide-area READ.
		joined := p.waitFetch(args.FH, bn)
		if block, ok := p.cache.getBlock(args.FH, bn); ok {
			if attr, attrOK := p.cache.getAttr(args.FH); attrOK && (p.servable(args.FH) || p.cache.hasDirty(args.FH)) {
				// res stays on this frame's stack: the warm hit path's only
				// allocation is the pooled staging buffer inside
				// localReadInto, recycled right after the reply encodes.
				var res nfs3.ReadRes
				if localReadInto(&res, attr, block, args.Offset, args.Count, bs) {
					if joined {
						// The demand read rode an in-flight readahead
						// instead of paying its own round-trip.
						p.met.readaheadJoins.Inc()
						call.SpanDetail = "join"
					}
					p.hitLocal(call)
					if p.cfg.Staleness != nil {
						st, sok := p.cache.blockStamp(args.FH, bn)
						p.observeServe(args.FH, st, sok)
					}
					call.SpanBytes = int64(res.Count)
					if p.cfg.DiskDelay > 0 {
						p.clk.Sleep(p.cfg.DiskDelay) // read the block from the disk cache
					}
					if seq {
						p.startReadAhead(call.ReqID, args.FH, bn)
					}
					res.Encode(call.Reply)
					releaseReadRes(&res)
					return sunrpc.Success
				}
			}
		}
	}

	return p.readForward(call, args, bn, aligned, seq)
}

// readForward forwards a READ upstream. args arrives by value: callUpstream's
// interface parameter makes &args escape, and keeping that address-taking out
// of read lets the warm hit path hold its ReadArgs on the stack — otherwise
// every READ, hit or miss, paid a heap allocation at the `var args` line.
func (p *ProxyClient) readForward(call *sunrpc.Call, args nfs3.ReadArgs, bn uint64, aligned, seq bool) sunrpc.AcceptStat {
	if aligned && seq {
		// Kick the pipeline before the demand READ so the next blocks cross
		// the wide area concurrently with this one.
		p.startReadAhead(call.ReqID, args.FH, bn)
	}
	bs := uint64(p.cfg.BlockSize)
	var res nfs3.ReadRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcRead, &args, &res); err != nil {
		return encodeReply(call, &nfs3.ReadRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	call.SpanBytes = int64(res.Count)
	p.noteForward(args.FH)
	if res.Status == nfs3.OK && res.Attr.Present {
		if aligned && (uint64(res.Count) == bs || res.EOF) {
			p.cache.putCleanBlock(args.FH, bn, res.Data, res.Attr.Attr)
		}
		p.cache.putAttr(args.FH, res.Attr.Attr)
	}
	return encodeReply(call, &res)
}

// localReadInto fills res with a READ reply from one cached block, returning
// false when the requested range cannot be served from it (the caller then
// forwards upstream). Tail blocks are stored at their natural, short length,
// so the in-block offset must be derived from the configured block size —
// never from len(block). The out-parameter shape lets the hot path keep res
// on the caller's stack: a warm cache hit allocates nothing but the pooled
// data staging buffer.
func localReadInto(res *nfs3.ReadRes, attr nfs3.Fattr, block []byte, offset uint64, count uint32, blockSize uint64) bool {
	size := attr.Size
	if offset >= size {
		*res = nfs3.ReadRes{Status: nfs3.OK, Attr: nfs3.PostOpAttr{Present: true, Attr: attr}, EOF: true}
		return true
	}
	bo := int(offset % blockSize)
	n := int(count)
	if bo+n > len(block) {
		n = len(block) - bo
	}
	if rem := size - offset; n > 0 && uint64(n) > rem {
		n = int(rem)
	}
	if n < 0 {
		n = 0
	}
	if n == 0 && count > 0 {
		// The range starts at or past the end of a short-stored block yet
		// inside the file (the block predates a remote append): the cache
		// cannot serve it.
		return false
	}
	// The copy is pool-owned (the cache-resident block cannot be handed out
	// directly: it may be overwritten under the lock while the reply is
	// encoded); the caller recycles it after the reply encodes via
	// releaseReadRes.
	data := bufpool.Get(n)
	copy(data, block[bo:bo+n])
	*res = nfs3.ReadRes{
		Status: nfs3.OK,
		Attr:   nfs3.PostOpAttr{Present: true, Attr: attr},
		Count:  uint32(n),
		EOF:    offset+uint64(n) >= size,
		Data:   data,
	}
	return true
}

// releaseReadRes recycles a localReadRes staging buffer once the reply has
// been encoded (the encoder copied the payload).
func releaseReadRes(res *nfs3.ReadRes) {
	if res != nil && res.Data != nil {
		bufpool.Put(res.Data)
		res.Data = nil
	}
}

// noteRead records a read of block bn of fh and reports whether it continues
// a sequential pattern (the previous read hit the preceding block).
func (p *ProxyClient) noteRead(fh nfs3.FH, bn uint64) bool {
	key := fh.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	last, ok := p.lastRead[key]
	p.lastRead[key] = bn
	return ok && bn == last+1
}

// startReadAhead prefetches up to Config.ReadAhead blocks following bn, each
// in its own actor so the wide-area READs are pipelined instead of paying
// one round-trip per block. Blocks already cached, dirty, or being fetched
// are skipped via the cache's in-flight accounting.
func (p *ProxyClient) startReadAhead(parent uint64, fh nfs3.FH, bn uint64) {
	ra := p.cfg.ReadAhead
	if ra <= 0 || p.isNoncacheable(fh) {
		return
	}
	p.mu.Lock()
	stopped := p.stopped
	p.mu.Unlock()
	if stopped {
		return
	}
	attr, ok := p.cache.getAttr(fh)
	if !ok {
		return
	}
	bs := uint64(p.cfg.BlockSize)
	for i := uint64(1); i <= uint64(ra); i++ {
		nb := bn + i
		if nb*bs >= attr.Size {
			break
		}
		if !p.cache.tryBeginFetch(fh, nb) {
			continue
		}
		// Each prefetch is its own traced request, parented on the demand
		// read that triggered it. Minted here, in the sequential spawn loop,
		// so the ID order is deterministic regardless of actor scheduling.
		rid := p.node.Mint()
		p.clk.Go("gvfs-readahead", func() { p.prefetchBlock(parent, rid, fh, nb) })
	}
}

// prefetchBlock fetches one block across the wide area into the session
// cache. The in-flight mark is cleared and waiting demand reads are woken
// whether or not the fetch succeeded — on failure they simply forward.
func (p *ProxyClient) prefetchBlock(parent, rid uint64, fh nfs3.FH, bn uint64) {
	defer p.fetchDone(fh, bn)
	start := p.node.Now()
	bs := uint64(p.cfg.BlockSize)
	args := nfs3.ReadArgs{FH: fh, Offset: bn * bs, Count: uint32(bs)}
	var res nfs3.ReadRes
	sp := obs.Span{
		Req:    rid,
		Parent: parent,
		Op:     "READAHEAD",
		FH:     fh.String(),
		Model:  shortModel(p.cfg.Model),
		Start:  start,
	}
	if _, err := p.callUpstream(rid, nfs3.ProcRead, &args, &res); err != nil {
		sp.End = p.node.Now()
		sp.Err = err.Error()
		p.node.Record(sp)
		return
	}
	if res.Status == nfs3.OK && res.Attr.Present && (uint64(res.Count) == bs || res.EOF) {
		p.cache.putCleanBlock(fh, bn, res.Data, res.Attr.Attr)
		p.met.readAheads.Inc()
	}
	sp.End = p.node.Now()
	sp.Bytes = int64(res.Count)
	if res.Status != nfs3.OK {
		sp.Err = res.Status.String()
	}
	p.node.Record(sp)
}

// fetchDone clears a block's in-flight prefetch mark and wakes demand reads
// waiting on it.
func (p *ProxyClient) fetchDone(fh nfs3.FH, bn uint64) {
	p.cache.endFetch(fh, bn)
	k := fetchKey{fh: fh.Key(), bn: bn}
	p.mu.Lock()
	ws := p.fetchWait[k]
	delete(p.fetchWait, k)
	p.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

// waitFetch blocks (through the clock) until no prefetch of (fh, bn) is in
// flight, and reports whether it actually waited — a demand read that did is
// a readahead join.
func (p *ProxyClient) waitFetch(fh nfs3.FH, bn uint64) (joined bool) {
	k := fetchKey{fh: fh.Key(), bn: bn}
	// Fast path first: the common demand read has no prefetch in flight, so
	// don't allocate a waiter just to discard it.
	p.mu.Lock()
	busy := p.cache.fetchInFlight(fh, bn)
	p.mu.Unlock()
	if !busy {
		return false
	}
	for {
		w := p.clk.NewWaiter()
		p.mu.Lock()
		if !p.cache.fetchInFlight(fh, bn) {
			p.mu.Unlock()
			return joined
		}
		p.fetchWait[k] = append(p.fetchWait[k], w)
		p.mu.Unlock()
		joined = true
		p.clk.WaitAs(w, "readahead fetch")
	}
}

func (p *ProxyClient) write(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.WriteArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	if call.Traced {
		call.SpanFH = args.FH.String()
	}
	call.SpanBytes = int64(len(args.Data))
	writeLocal := p.cfg.WriteBack || (p.cfg.Model == ModelDelegation && p.hasWriteDeleg(args.FH))
	attr, attrOK := p.cache.getAttr(args.FH)

	if writeLocal && attrOK && !p.isNoncacheable(args.FH) {
		bs := uint64(p.cfg.BlockSize)
		// Read-modify-write: fetch a partially overwritten block that is
		// inside the current file but not yet cached.
		startBn := args.Offset / bs
		endBn := (args.Offset + uint64(len(args.Data)) - 1) / bs
		for bn := startBn; len(args.Data) > 0 && bn <= endBn; bn++ {
			blockStart := bn * bs
			blockEnd := blockStart + bs
			coversWhole := args.Offset <= blockStart && args.Offset+uint64(len(args.Data)) >= blockEnd
			if coversWhole || blockStart >= attr.Size {
				continue
			}
			if _, cached := p.cache.getBlock(args.FH, bn); cached {
				continue
			}
			var rres nfs3.ReadRes
			rargs := nfs3.ReadArgs{FH: args.FH, Offset: blockStart, Count: uint32(bs)}
			if _, err := p.callUpstream(call.ReqID, nfs3.ProcRead, &rargs, &rres); err != nil || rres.Status != nfs3.OK {
				writeLocal = false
				break
			}
			p.hitForward(call)
			if rres.Attr.Present {
				p.cache.putCleanBlock(args.FH, bn, rres.Data, rres.Attr.Attr)
			}
		}
		if writeLocal {
			if p.cfg.DiskDelay > 0 {
				p.clk.Sleep(p.cfg.DiskDelay) // persist the dirty block to the disk cache
			}
			p.cache.writeDirty(args.FH, args.Offset, args.Data)
			newAttr, _ := p.cache.getAttr(args.FH)
			p.hitLocal(call)
			// Stack-encoded directly: the absorbed-write path allocates
			// nothing at steady state.
			res := nfs3.WriteRes{
				Status:    nfs3.OK,
				Wcc:       nfs3.WccData{After: nfs3.PostOpAttr{Present: true, Attr: newAttr}},
				Count:     uint32(len(args.Data)),
				Committed: nfs3.FileSync,
				Verf:      1,
			}
			res.Encode(call.Reply)
			return sunrpc.Success
		}
	}

	return p.writeForward(call, args)
}

// writeForward forwards a WRITE upstream. As with readForward, args arrives
// by value so the absorbed-write path in write keeps its WriteArgs on the
// stack instead of heap-allocating it for callUpstream's sake.
func (p *ProxyClient) writeForward(call *sunrpc.Call, args nfs3.WriteArgs) sunrpc.AcceptStat {
	var res nfs3.WriteRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcWrite, &args, &res); err != nil {
		return encodeReply(call, &nfs3.WriteRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.FH)
	if res.Status == nfs3.OK && res.Wcc.After.Present {
		// Reconcile first (recognizing our own mtime advance via the wcc
		// data), then cache the freshly written block.
		p.cache.updateAfterWrite(args.FH, res.Wcc)
		bs := uint64(p.cfg.BlockSize)
		if args.Offset%bs == 0 && (uint64(len(args.Data)) == bs || args.Offset+uint64(len(args.Data)) >= res.Wcc.After.Attr.Size) {
			p.cache.putCleanBlock(args.FH, args.Offset/bs, args.Data, res.Wcc.After.Attr)
		}
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) isNoncacheable(fh nfs3.FH) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.noncacheable[fh.Key()]
}

func (p *ProxyClient) setattr(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.SetattrArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	p.mapIdentity(&args.Attr)
	call.SpanFH = args.FH.String()
	// Truncation invalidates buffered writes beyond the new size; flush
	// first for simplicity and correctness.
	if p.cache.hasDirty(args.FH) {
		p.flushFile(call.ReqID, args.FH, 0, false)
	}
	var res nfs3.WccRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcSetattr, &args, &res); err != nil {
		return encodeReply(call, &nfs3.WccRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.FH)
	if res.Status == nfs3.OK && res.Wcc.After.Present {
		p.cache.putAttr(args.FH, res.Wcc.After.Attr)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) create(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.CreateArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	p.mapIdentity(&args.Attr)
	call.SpanFH = args.Where.Dir.String()
	var res nfs3.CreateRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcCreate, &args, &res); err != nil {
		return encodeReply(call, &nfs3.CreateRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	if res.Status == nfs3.OK && res.FHFollows && args.Mode == nfs3.CreateUnchecked {
		// An unchecked create truncates an existing file: any dirty data
		// buffered for the old contents is gone by definition.
		p.cache.dropDirty(res.FH)
	}
	p.afterCreateLike(args.Where, &res)
	return encodeReply(call, &res)
}

func (p *ProxyClient) mkdir(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.MkdirArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	p.mapIdentity(&args.Attr)
	call.SpanFH = args.Where.Dir.String()
	var res nfs3.CreateRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcMkdir, &args, &res); err != nil {
		return encodeReply(call, &nfs3.CreateRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.afterCreateLike(args.Where, &res)
	return encodeReply(call, &res)
}

func (p *ProxyClient) symlink(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.SymlinkArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	p.mapIdentity(&args.Attr)
	call.SpanFH = args.Where.Dir.String()
	var res nfs3.CreateRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcSymlink, &args, &res); err != nil {
		return encodeReply(call, &nfs3.CreateRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.afterCreateLike(args.Where, &res)
	return encodeReply(call, &res)
}

func (p *ProxyClient) afterCreateLike(where nfs3.DirOpArgs, res *nfs3.CreateRes) {
	p.noteForward(where.Dir)
	if res.DirWcc.After.Present {
		p.cache.putAttr(where.Dir, res.DirWcc.After.Attr)
	}
	if res.Status == nfs3.OK && res.FHFollows {
		if res.Attr.Present {
			p.cache.putAttr(res.FH, res.Attr.Attr)
		}
		p.cache.putLookup(where.Dir, where.Name, res.FH)
	}
}

func (p *ProxyClient) unlink(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.DirOpArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.Dir.String()
	// Abandon buffered dirty data for the victim: it is being deleted.
	if childFH, negative, ok := p.cache.getLookup(args.Dir, args.Name); ok && !negative {
		p.cache.dropDirty(childFH)
	}
	var res nfs3.WccRes
	if _, err := p.callUpstream(call.ReqID, call.Proc, &args, &res); err != nil {
		return encodeReply(call, &nfs3.WccRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.Dir)
	p.cache.dropLookup(args.Dir, args.Name)
	if res.Wcc.After.Present {
		p.cache.putAttr(args.Dir, res.Wcc.After.Attr)
		if res.Status == nfs3.OK {
			// The name is now known absent.
			p.cache.putNegLookup(args.Dir, args.Name)
		}
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) rename(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.RenameArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.From.Dir.String()
	var res nfs3.RenameRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcRename, &args, &res); err != nil {
		return encodeReply(call, &nfs3.RenameRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.From.Dir)
	p.noteForward(args.To.Dir)
	p.cache.dropLookup(args.From.Dir, args.From.Name)
	p.cache.dropLookup(args.To.Dir, args.To.Name)
	if res.FromWcc.After.Present {
		p.cache.putAttr(args.From.Dir, res.FromWcc.After.Attr)
	}
	if res.ToWcc.After.Present {
		p.cache.putAttr(args.To.Dir, res.ToWcc.After.Attr)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) linkProc(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.LinkArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.FH.String()
	var res nfs3.LinkRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcLink, &args, &res); err != nil {
		return encodeReply(call, &nfs3.LinkRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.FH)
	p.noteForward(args.Link.Dir)
	if res.Attr.Present {
		p.cache.putAttr(args.FH, res.Attr.Attr)
	}
	if res.LinkWcc.After.Present {
		p.cache.putAttr(args.Link.Dir, res.LinkWcc.After.Attr)
	}
	if res.Status == nfs3.OK {
		p.cache.putLookup(args.Link.Dir, args.Link.Name, args.FH)
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) readdir(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReaddirArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.Dir.String()
	// Serve complete cached listings that fit one reply; pagination always
	// forwards, since upstream cookies are opaque to us.
	if args.Cookie == 0 && !p.cfg.DisableMetaCache && p.servable(args.Dir) {
		if entries, ok := p.cache.getDirListing(args.Dir); ok {
			if dirAttr, ok2 := p.cache.getAttr(args.Dir); ok2 && listingFits(entries, args.Count) {
				p.met.listingHits.Inc()
				p.hitLocal(call)
				if p.cfg.Staleness != nil {
					st, sok := p.cache.attrStamp(args.Dir)
					p.observeServe(args.Dir, st, sok)
				}
				return encodeReply(call, &nfs3.ReaddirRes{
					Status:     nfs3.OK,
					DirAttr:    nfs3.PostOpAttr{Present: true, Attr: dirAttr},
					CookieVerf: 1,
					Entries:    entries,
					EOF:        true,
				})
			}
		}
	}
	var res nfs3.ReaddirRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcReaddir, &args, &res); err != nil {
		return encodeReply(call, &nfs3.ReaddirRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.Dir)
	if res.DirAttr.Present {
		p.cache.putAttr(args.Dir, res.DirAttr.Attr)
	}
	// A single-page complete listing is cacheable; multi-page listings are
	// not worth stitching.
	if res.Status == nfs3.OK && res.EOF && args.Cookie == 0 {
		p.cache.putDirListing(args.Dir, res.Entries)
	}
	return encodeReply(call, &res)
}

// listingFits reports whether entries encode within a READDIR count budget,
// using the same per-entry cost model as the NFS server.
func listingFits(entries []nfs3.DirEntry, count uint32) bool {
	budget := int(count)
	for i := range entries {
		budget -= 16 + len(entries[i].Name) + 8
	}
	return budget >= 0
}

func (p *ProxyClient) readdirplus(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.ReaddirplusArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.Dir.String()
	var res nfs3.ReaddirplusRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcReaddirplus, &args, &res); err != nil {
		return encodeReply(call, &nfs3.ReaddirplusRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.Dir)
	if res.DirAttr.Present {
		p.cache.putAttr(args.Dir, res.DirAttr.Attr)
	}
	// Entry attributes and handles are a free prefetch into the disk cache.
	for i := range res.Entries {
		ent := &res.Entries[i]
		if ent.FHFollows && ent.Attr.Present {
			p.cache.putAttr(ent.FH, ent.Attr.Attr)
			p.cache.putLookup(args.Dir, ent.Name, ent.FH)
		}
	}
	return encodeReply(call, &res)
}

func (p *ProxyClient) commit(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.CommitArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.FH.String()
	if p.cache.hasDirty(args.FH) {
		p.flushFile(call.ReqID, args.FH, 0, false)
	}
	var res nfs3.CommitRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcCommit, &args, &res); err != nil {
		return encodeReply(call, &nfs3.CommitRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	return encodeReply(call, &res)
}

// access answers an ACCESS check locally when the model allows it:
// permission bits are a pure function of the file's attributes and the
// caller's identity (nfs3.AccessForAttr), so servable cached attributes
// answer the check without a wide-area round trip. The identity comes from
// the kernel's AUTH_SYS credential — which the loopback mount carries —
// and defaults to root for other flavors, matching the open-export policy
// the server applies to non-AUTH_SYS callers.
func (p *ProxyClient) access(call *sunrpc.Call) sunrpc.AcceptStat {
	var args nfs3.AccessArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.FH.String()
	if !p.cfg.DisableMetaCache && p.servable(args.FH) {
		if a, ok := p.cache.getAttr(args.FH); ok {
			uid, gid, idOK := call.Cred.SysIdentity()
			if !idOK {
				uid, gid = 0, 0
			}
			p.met.accessHits.Inc()
			p.hitLocal(call)
			if p.cfg.Staleness != nil {
				st, sok := p.cache.attrStamp(args.FH)
				p.observeServe(args.FH, st, sok)
			}
			return encodeReply(call, &nfs3.AccessRes{
				Status: nfs3.OK,
				Attr:   nfs3.PostOpAttr{Present: true, Attr: a},
				Access: nfs3.AccessForAttr(a, uid, gid, args.Access),
			})
		}
	}
	var res nfs3.AccessRes
	if _, err := p.callUpstream(call.ReqID, nfs3.ProcAccess, &args, &res); err != nil {
		return encodeReply(call, &nfs3.AccessRes{Status: nfs3.ErrJukebox})
	}
	p.hitForward(call)
	p.noteForward(args.FH)
	if res.Status == nfs3.OK && res.Attr.Present {
		p.cache.putAttr(args.FH, res.Attr.Attr)
	}
	return encodeReply(call, &res)
}

// passthrough forwards a call without caching semantics.
func (p *ProxyClient) passthrough(call *sunrpc.Call) sunrpc.AcceptStat {
	raw, err := p.rawCall(call.ReqID, nfs3.Program, nfs3.Version, call.Proc, call.Args.RestRef())
	if err != nil {
		return sunrpc.SystemErr
	}
	p.hitForward(call)
	call.Reply.FixedOpaque(raw.RestRef())
	return sunrpc.Success
}

// --- callback service (proxy server -> proxy client) ------------------------

func (p *ProxyClient) dispatchCallback(call *sunrpc.Call) sunrpc.AcceptStat {
	start := p.node.Now()
	var stat sunrpc.AcceptStat
	switch call.Proc {
	case ProcRecall:
		stat = p.handleRecall(call)
	case ProcRecallAll:
		stat = p.handleRecallAll(call)
	default:
		return sunrpc.ProcUnavail
	}
	sp := obs.Span{
		Req:    call.ReqID,
		Op:     RPCName(CallbackProgram, call.Proc),
		FH:     call.SpanFH,
		Model:  shortModel(p.cfg.Model),
		Detail: call.SpanDetail,
		Start:  start,
		End:    p.node.Now(),
	}
	if stat != sunrpc.Success {
		sp.Err = stat.String()
	}
	p.node.Record(sp)
	return stat
}

// handleRecall serves a delegation recall (Section 4.3.2). Read recalls
// invalidate cached attributes; write recalls additionally force write-back
// of dirty data, with the pending-list optimization for large dirty sets.
func (p *ProxyClient) handleRecall(call *sunrpc.Call) sunrpc.AcceptStat {
	var args RecallArgs
	if args.Decode(call.Args) != nil {
		return sunrpc.GarbageArgs
	}
	call.SpanFH = args.FH.String()
	p.met.recalls.Inc()
	p.mu.Lock()
	delete(p.delegs, args.FH.Key())
	if args.Seq > p.recallFence[args.FH.Key()] {
		p.recallFence[args.FH.Key()] = args.Seq
	}
	p.mu.Unlock()
	p.cache.invalidateAttr(args.FH)
	p.cfg.Staleness.ObservePropagation("recall", args.FH.Key())
	if args.Name != "" {
		// The recall was triggered by an operation removing or replacing
		// this entry of the (directory) handle: the binding must go.
		p.cache.dropLookup(args.FH, args.Name)
	}

	res := RecallRes{Status: nfs3.OK}
	dirty := p.cache.dirtyBlocks(args.FH)
	if len(dirty) > 0 {
		bs := uint64(p.cfg.BlockSize)
		if len(dirty) > p.cfg.DirtyListThreshold {
			// Large dirty set: write the contended block back now, report
			// the rest as pending, and flush them in the background. The
			// highest dirty block is also submitted inline so the server's
			// file size reflects the buffered writes — other clients stat
			// the file before reading it.
			p.flushBlock(call.ReqID, args.FH, dirty[len(dirty)-1])
			if args.HasOffset {
				p.flushBlock(call.ReqID, args.FH, args.Offset/bs)
			}
			// A concurrent flusher (periodic flush, another recall) may still
			// have WRITEs in flight for the blocks above — takeDirty refuses
			// in-flight blocks, so our inline calls may have been no-ops.
			// Drain before building the pending list so the reply's promises
			// reflect durable state.
			p.waitFlushIdle(args.FH)
			for _, bn := range p.cache.dirtyBlocks(args.FH) {
				res.Pending = append(res.Pending, bn*bs)
			}
			p.queueRecallFlush(call.ReqID, args.FH)
		} else {
			// Small dirty set: write everything back before replying, with
			// the WRITEs pipelined up to FlushParallelism deep.
			p.flushFile(call.ReqID, args.FH, 0, false)
		}
	}
	return encodeReply(call, &res)
}

// handleRecallAll answers a whole-cache callback during server state
// reconstruction (Section 4.3.4): invalidate all cached attributes and
// report which files hold locally modified data.
func (p *ProxyClient) handleRecallAll(call *sunrpc.Call) sunrpc.AcceptStat {
	p.cache.invalidateAllAttrs()
	p.met.recalls.Inc()
	p.mu.Lock()
	dirty := p.cache.dirtyFiles()
	// Delegations are void (the server lost its state); write delegations
	// on dirty files are re-established by the server's rebuild.
	p.delegs = make(map[string]DelegType)
	for _, fh := range dirty {
		p.delegs[fh.Key()] = DelegWrite
	}
	p.mu.Unlock()
	res := RecallAllRes{DirtyFiles: dirty}
	return encodeReply(call, &res)
}
