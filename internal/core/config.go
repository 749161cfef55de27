package core

import (
	"time"

	"repro/internal/nfs3"
	"repro/internal/obs"
	"repro/internal/sunrpc"
)

// Model selects a GVFS session's cache consistency protocol.
type Model int

// Consistency models (Section 4).
const (
	// ModelPolling is the relaxed model based on invalidation polling
	// (Section 4.2).
	ModelPolling Model = iota + 1
	// ModelDelegation is the strong model based on delegation and callback
	// (Section 4.3).
	ModelDelegation
)

func (m Model) String() string {
	switch m {
	case ModelPolling:
		return "invalidation-polling"
	case ModelDelegation:
		return "delegation-callback"
	default:
		return "unknown"
	}
}

// Config carries the per-session, application-tailored parameters middleware
// chooses when it establishes a GVFS session. Zero values take the defaults
// documented on each field.
type Config struct {
	// Model selects the consistency protocol. Default ModelPolling.
	Model Model

	// WriteBack enables write-back caching at the proxy client: WRITEs are
	// buffered in the disk cache and flushed lazily (GVFS-WB in Figure 4;
	// implied by a write delegation under ModelDelegation).
	WriteBack bool

	// PollPeriod is the invalidation polling window (Section 4.2.1).
	// Default 30 s, the "typical period" of the evaluation.
	PollPeriod time.Duration
	// PollBackoffMax, when nonzero, enables the exponential back-off
	// policy: idle polls double the window from PollPeriod up to this
	// bound; any received invalidation resets it.
	PollBackoffMax time.Duration
	// InvBufferEntries sizes each per-client circular invalidation buffer.
	// Overflow triggers force-invalidation. Default 1024.
	InvBufferEntries int
	// MaxHandlesPerReply bounds one GETINV reply; larger buffers set the
	// poll-again flag. The default batches aggressively: one reply drains an
	// entire default-sized invalidation buffer (bounded by what fits in a
	// MaxIOSize reply), so a poll costs one round trip, not a PollAgain
	// ladder. Set a small explicit value to exercise multi-round drains.
	MaxHandlesPerReply int

	// DelegExpiry is how long after its last access a file is speculated
	// closed by a client (Section 4.3.3). Default 10 minutes.
	DelegExpiry time.Duration
	// DelegRenew is the proxy client's delegation renewal period: cached
	// requests bypass the cache this often to refresh the server's access
	// time. Must be below DelegExpiry. Default 8 minutes.
	DelegRenew time.Duration
	// DirtyListThreshold is the number of dirty blocks above which a write
	// recall answers with a pending-block list instead of flushing inline
	// (Section 4.3.2's optimization). Default 1024 ("more than 1k blocks").
	DirtyListThreshold int
	// MaxOpenFiles caps the proxy server's open-file table; beyond it the
	// server proactively recalls the least recently accessed entries
	// (Section 4.3.3). Default 65536.
	MaxOpenFiles int

	// AttrTTL, DentryTTL, and NegDentryTTL bound how long the metadata fast
	// path may serve cached attributes, directory entries, and negative
	// (NOENT) entries without revalidation, in virtual time. The TTLs are
	// honored only under ModelPolling, which already tolerates staleness up
	// to the poll window; a delegation session's entries are valid exactly
	// as long as the delegation is held, so adding a timer there would
	// weaken nothing and save nothing. 0 disables the TTL: validity is then
	// governed purely by the invalidation protocol. Default 0.
	AttrTTL      time.Duration
	DentryTTL    time.Duration
	NegDentryTTL time.Duration

	// MaxAttrEntries, MaxDentries, and MaxDirListings cap the metadata
	// caches; past the cap the least recently used entry is evicted.
	// Defaults 65536, 65536, and 1024; negative values remove the bound.
	MaxAttrEntries int
	MaxDentries    int
	MaxDirListings int

	// DisableMetaCache turns the metadata fast path off: GETATTR, LOOKUP,
	// ACCESS, and READDIR always cross the wide area. Attributes are still
	// recorded from replies — the data path's block reconciliation depends
	// on them — but never served. This is the caches-off ablation baseline.
	DisableMetaCache bool

	// BlockSize is the disk cache block size. Default 32 KiB, matching the
	// evaluation's transfer size.
	BlockSize int
	// CacheBytes bounds the client disk cache. Default 4 GiB.
	CacheBytes int64

	// DiskCacheDir, when non-empty, backs the session cache with a
	// crash-consistent on-disk block store rooted at this directory
	// (internal/diskcache): data blocks, their dirty state, and write
	// generations survive a proxy-client restart, after which clean blocks
	// are revalidated through the model's normal channel instead of
	// refetched and dirty write-delegated blocks re-enter the write-back
	// pipeline. Empty (the default) keeps the cache purely in memory.
	DiskCacheDir string
	// DiskCacheSyncPolicy selects the store's fsync policy: "dirty"
	// (default — sync on dirty-state transitions), "always", or "none".
	DiskCacheSyncPolicy string

	// ProxyDelay models the user-level interception and cache-management
	// cost a proxy adds to each RPC it handles (the 4-8% LAN overhead of
	// Section 5.1.1). Applied at both proxy client and proxy server.
	// Default 0.
	ProxyDelay time.Duration

	// DiskDelay models the proxy client's disk-cache block access time: the
	// paper's caches live on disk, so serving a data block locally or
	// buffering a dirty block is not free — it costs roughly a disk access,
	// which is exactly why kernel NFS wins at LAN latencies (Figure 5's
	// crossover). Applied per data block served from or written to the
	// cache. Default 0 (in-memory cache).
	DiskDelay time.Duration

	// FlushInterval is the background write-back flush period. Default 30 s.
	FlushInterval time.Duration

	// FlushParallelism bounds how many dirty-block WRITE RPCs a write-back
	// (periodic flush, recall pending-chase, pre-SETATTR/COMMIT flush) keeps
	// in flight across the wide area at once, so flushing N blocks costs
	// about N/FlushParallelism round-trips instead of N. 1 serializes
	// flushes. Default 1.
	FlushParallelism int

	// MaxWriteBytes caps one coalesced write-back WRITE: adjacent dirty
	// blocks are merged into a single RPC of up to this many bytes, so a
	// sequentially dirtied file flushes in ceil(bytes/MaxWriteBytes) WRITEs
	// instead of one per block. Values at or below BlockSize disable
	// coalescing (every WRITE carries one block); 0 defaults to
	// nfs3.MaxIOSize, the wire-level payload bound.
	MaxWriteBytes int

	// ReadAhead is the number of blocks the proxy client prefetches into
	// the session cache ahead of a detected sequential read pattern,
	// pipelining cold sequential reads instead of paying one round-trip per
	// block. 0 disables readahead. Default 0.
	ReadAhead int

	// CallTimeout bounds upstream and callback RPCs so crashes and
	// partitions surface as retriable timeouts. Default 15 s.
	CallTimeout time.Duration

	// RetransmitInitial is the wait before an unanswered upstream or
	// callback RPC is retransmitted under the same XID (the at-least-once
	// recovery NFS assumes; the server's duplicate-request cache keeps the
	// extra copies from re-executing). Subsequent waits double up to
	// RetransmitMax. Negative disables retransmission. Default 1 s.
	RetransmitInitial time.Duration
	// RetransmitMax caps the exponential retransmission backoff.
	// Default 8 s.
	RetransmitMax time.Duration
	// RetransmitJitter bounds the deterministic per-attempt jitter added to
	// each retransmission wait (hashed from RetransmitSeed, the XID and the
	// attempt, so simulations reproduce exactly). Default 100 ms.
	RetransmitJitter time.Duration
	// RetransmitSeed perturbs the retransmission jitter hash. Default 0.
	RetransmitSeed int64
	// RetransmitPerByte stretches the initial retransmission wait by the
	// request frame's size (effective initial = RetransmitInitial +
	// frameBytes*RetransmitPerByte), so a coalesced megabyte WRITE is not
	// retransmitted while its first copy is still crossing a
	// bandwidth-limited link. The default, 2 µs/byte, is the transfer rate
	// of the paper's 4 Mbit/s WAN — a conservative floor that at worst
	// delays a retransmission by the frame's own transfer time. Negative
	// disables the stretch. Default 2 µs.
	RetransmitPerByte time.Duration
	// DRCEntries bounds each connection's duplicate-request cache at the
	// proxy RPC servers (proxy server, NFS server, and the proxy client's
	// callback service). Negative disables the cache. Default 512.
	DRCEntries int

	// ServerWorkers bounds how many request handlers the proxy server (and
	// the proxy client's callback service) run concurrently: requests beyond
	// the pool wait in per-client FIFO queues drained by byte-costed deficit
	// round-robin, so one hot mount cannot starve the rest. 0 keeps the
	// legacy unbounded per-request dispatch; negative also means unbounded
	// but allows the rate limits below to stand alone.
	ServerWorkers int
	// ServerQueueDepth bounds each client's queue; a full queue sheds its
	// oldest request with a retryable TRY_LATER the retransmitting client
	// absorbs. Default 256 (only meaningful with ServerWorkers > 0).
	ServerQueueDepth int
	// RateLimitOps/RateLimitBurst configure the proxy server's global
	// token-bucket admission controller in requests/second; excess load is
	// shed with TRY_LATER before it consumes a worker. 0 disables.
	RateLimitOps   float64
	RateLimitBurst float64
	// ClientRateLimitOps/ClientRateLimitBurst configure an identical bucket
	// per client, so shedding lands on the client causing the overload
	// instead of whoever arrives next. 0 disables.
	ClientRateLimitOps   float64
	ClientRateLimitBurst float64

	// UIDMap and GIDMap translate the client domain's numeric identities
	// into the server domain's before requests cross the wide area — the
	// cross-domain identity mapping the paper's middleware performs.
	// Unmapped identities pass through unchanged. Applied by the proxy
	// client to the settable attributes of CREATE/MKDIR/SYMLINK/SETATTR.
	UIDMap map[uint32]uint32
	GIDMap map[uint32]uint32

	// Encrypt seals the session's wide-area channels (proxy client <->
	// proxy server, including callbacks) with AES-GCM keyed from the
	// session key — the per-session private channel the paper's middleware
	// provides. Applied at the transport layer by the middleware (the gvfs
	// package); loopback traffic stays plain.
	Encrypt bool

	// Obs, when set, is the deployment-wide observability spine (trace
	// recorder + metrics registry) the proxy records into. When nil the
	// proxy creates a private one, so the Stats views keep working for
	// standalone use.
	Obs *obs.Obs
	// ObsName qualifies this component's trace node name (for example a
	// session name). Defaults to the session credential's client ID.
	ObsName string

	// Staleness, when set, is the deployment-global staleness oracle: the
	// proxy server records every committed mutation into it and the proxy
	// client reports every cache-served read against it, yielding measured
	// staleness histograms and a violation counter per model. It lives at
	// the deployment (not the session) so it survives proxy restarts and
	// sees commits from every writer. Nil disables the observatory.
	Staleness *obs.StalenessOracle
}

func (c Config) withDefaults() Config {
	if c.Model == 0 {
		c.Model = ModelPolling
	}
	if c.PollPeriod == 0 {
		c.PollPeriod = 30 * time.Second
	}
	if c.InvBufferEntries == 0 {
		c.InvBufferEntries = 1024
	}
	if c.MaxHandlesPerReply == 0 {
		// Batch a whole default buffer into one GETINV reply, bounded by how
		// many encoded handles (length + MaxFHSize payload) fit in MaxIOSize.
		c.MaxHandlesPerReply = c.InvBufferEntries
		if fit := nfs3.MaxIOSize / (nfs3.MaxFHSize + 8); c.MaxHandlesPerReply > fit {
			c.MaxHandlesPerReply = fit
		}
	}
	if c.DelegExpiry == 0 {
		c.DelegExpiry = 10 * time.Minute
	}
	if c.DelegRenew == 0 {
		c.DelegRenew = 8 * time.Minute
	}
	if c.DelegRenew >= c.DelegExpiry {
		c.DelegRenew = c.DelegExpiry * 4 / 5
	}
	if c.DirtyListThreshold == 0 {
		c.DirtyListThreshold = 1024
	}
	if c.MaxOpenFiles == 0 {
		c.MaxOpenFiles = 65536
	}
	if c.MaxAttrEntries == 0 {
		c.MaxAttrEntries = 65536
	}
	if c.MaxDentries == 0 {
		c.MaxDentries = 65536
	}
	if c.MaxDirListings == 0 {
		c.MaxDirListings = 1024
	}
	if c.BlockSize == 0 {
		c.BlockSize = 32 * 1024
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 4 << 30
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 30 * time.Second
	}
	if c.FlushParallelism == 0 {
		c.FlushParallelism = 1
	}
	if c.MaxWriteBytes == 0 {
		c.MaxWriteBytes = nfs3.MaxIOSize
	}
	if c.MaxWriteBytes < c.BlockSize {
		c.MaxWriteBytes = c.BlockSize
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 15 * time.Second
	}
	if c.RetransmitInitial == 0 {
		c.RetransmitInitial = time.Second
	}
	if c.RetransmitMax == 0 {
		c.RetransmitMax = 8 * time.Second
	}
	if c.RetransmitJitter == 0 {
		c.RetransmitJitter = 100 * time.Millisecond
	}
	if c.RetransmitPerByte == 0 {
		c.RetransmitPerByte = 2 * time.Microsecond
	}
	if c.DRCEntries == 0 {
		c.DRCEntries = 512
	}
	return c
}

// metaPolicy derives the session cache's metadata bounds from the config:
// capacity caps always apply; TTLs only under the polling model (see the
// AttrTTL field docs).
func (c Config) metaPolicy() metaPolicy {
	cap := func(n int) int {
		if n < 0 {
			return 0 // unbounded
		}
		return n
	}
	pol := metaPolicy{
		maxAttrs:    cap(c.MaxAttrEntries),
		maxDentries: cap(c.MaxDentries),
		maxListings: cap(c.MaxDirListings),
	}
	if c.Model == ModelPolling {
		pol.attrTTL = c.AttrTTL
		pol.dentryTTL = c.DentryTTL
		pol.negTTL = c.NegDentryTTL
	}
	return pol
}

// callbackSchedConfig derives the scheduling configuration for the proxy
// client's callback service: the worker pool and queue bound apply (a recall
// storm must not spawn unbounded handlers), but the admission rate limits do
// not — shedding a recall only delays the conflicting request that issued it,
// and the pool already provides the back-pressure.
func (c Config) callbackSchedConfig() sunrpc.SchedConfig {
	sc := c.schedConfig()
	sc.RateLimit = 0
	sc.RateBurst = 0
	sc.ClientRate = 0
	sc.ClientBurst = 0
	return sc
}

// schedConfig derives the sunrpc scheduling configuration for the session's
// servers. Fairness keys come from the AuthGVFS session credential when
// present (stable across a client's reconnects), falling back to the
// connection's remote address.
func (c Config) schedConfig() sunrpc.SchedConfig {
	workers := c.ServerWorkers
	if workers < 0 {
		workers = 0
	}
	return sunrpc.SchedConfig{
		Workers:     workers,
		QueueDepth:  c.ServerQueueDepth,
		RateLimit:   c.RateLimitOps,
		RateBurst:   c.RateLimitBurst,
		ClientRate:  c.ClientRateLimitOps,
		ClientBurst: c.ClientRateLimitBurst,
		ClientName: func(cred sunrpc.Cred, remote string) string {
			if sc, err := DecodeSessionCred(cred); err == nil && sc.ClientID != "" {
				return sc.ClientID
			}
			return remote
		},
	}
}

// applyRetransmit installs the session's retransmission policy on an RPC
// client (upstream or callback), unless retransmission is disabled.
func (c Config) applyRetransmit(cl *sunrpc.Client) {
	if c.RetransmitInitial <= 0 {
		return
	}
	perByte := c.RetransmitPerByte
	if perByte < 0 {
		perByte = 0
	}
	cl.SetRetransmit(sunrpc.RetransmitPolicy{
		Initial: c.RetransmitInitial,
		Max:     c.RetransmitMax,
		PerByte: perByte,
		Jitter:  c.RetransmitJitter,
		Seed:    c.RetransmitSeed,
	})
}
