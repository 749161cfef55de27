package core

import (
	"repro/internal/diskcache"
	"repro/internal/nfs3"
	"repro/internal/obs"
)

// blockPersister is the sessionCache's view of the on-disk block store: a
// mirror of block data and dirty state, driven synchronously from under the
// cache mutex at every mutation site. A nil persister disables persistence
// with zero hot-path overhead. *diskcache.Store implements it.
type blockPersister interface {
	PutBlock(key string, bn uint64, data []byte, dirty bool, gen uint64)
	MarkClean(key string, bn uint64, gen uint64)
	DropBlock(key string, bn uint64)
	DropFile(key string)
	SetFileMeta(key string, mtimeSec, mtimeNsec uint32, size uint64, localChange uint32)
}

// recoveryCounters receives the revalidated-vs-refetched verdicts for
// recovered clean blocks; the cache's pointer is nil when persistence is
// off.
type recoveryCounters struct {
	revalidated *obs.Counter
	refetched   *obs.Counter
}

// persistMetaLocked mirrors the file's identity attributes; the store
// deduplicates unchanged metas.
func (sc *sessionCache) persistMetaLocked(key string, fc *cachedFile) {
	if sc.persist != nil {
		sc.persist.SetFileMeta(key, fc.mtime.Sec, fc.mtime.Nsec, fc.size, fc.localChange)
	}
}

// adoptRecovered installs the disk store's recovered files into the cache.
// Clean blocks enter the LRU; dirty blocks re-enter the write-back pipeline
// with their saved generations, so the existing lost-update fences (flushed
// compares generations) hold across the restart. Files with surviving clean
// blocks are marked for revalidation accounting: their first server
// attribute observation decides revalidated (mtime unchanged — the blocks
// were served without refetching) versus refetched (mtime moved — the
// normal reconciliation drops them).
func (sc *sessionCache) adoptRecovered(files map[string]*diskcache.FileState) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for key, fs := range files {
		fc := sc.fileFor(key)
		fc.mtime = nfs3.Time{Sec: fs.MtimeSec, Nsec: fs.MtimeNsec}
		fc.size = fs.Size
		fc.localChange = fs.LocalChange
		hasClean := false
		for bn, b := range fs.Blocks {
			fc.blocks[bn] = b.Data
			fc.stamps[bn] = sc.nowLocked()
			if b.Gen > 0 {
				fc.dirtyGen[bn] = b.Gen
			}
			if b.Dirty {
				fc.dirty[bn] = true
			} else {
				sc.lru.add(key, bn, len(b.Data))
				hasClean = true
			}
		}
		if hasClean {
			if sc.recovered == nil {
				sc.recovered = make(map[string]bool)
			}
			sc.recovered[key] = true
		}
	}
	// Recovered state can exceed this incarnation's memory budget. The
	// persister is already attached, so each eviction also drops the
	// block from disk: the store keeps exactly what memory kept.
	sc.evictLocked()
}

// openDiskCache opens (or recovers) the persistent block store under
// Config.DiskCacheDir and installs it as the session cache's disk mirror.
// Recovered clean blocks enter the cache ready to serve once their file
// revalidates through the model's normal channel; recovered dirty blocks
// re-enter the write-back pipeline. Any open failure degrades the proxy to
// memory-only operation — persistence must never take the session down.
func (p *ProxyClient) openDiskCache() {
	pol, err := diskcache.ParseSyncPolicy(p.cfg.DiskCacheSyncPolicy)
	if err != nil {
		p.met.diskCacheErrors.Inc()
		return
	}
	st, rec, err := diskcache.Open(p.cfg.DiskCacheDir, p.cfg.CacheBytes, pol)
	if err != nil {
		p.met.diskCacheErrors.Inc()
		return
	}
	p.disk = st
	// Attach before adopting: adoption's budget evictions then reach the
	// store through the normal DropBlock hook. Nothing else can touch the
	// cache yet, so setting the fields without sc.mu is safe.
	p.cache.persist = st
	p.cache.recMet = &recoveryCounters{
		revalidated: p.met.revalidatedBlks,
		refetched:   p.met.refetchedBlks,
	}
	if len(rec.Files) > 0 {
		p.cache.adoptRecovered(rec.Files)
	}
	p.met.recoveredBlocks.Add(int64(rec.Stats.Blocks))
	p.met.recoveredDirty.Add(int64(rec.Stats.DirtyBlocks))
	p.met.recoveryDropped.Add(int64(rec.Stats.Dropped))
	p.met.recoveryReplayNs.Set(rec.Stats.Replay.Nanoseconds())
}

// DiskStore exposes the persistent store (nil when persistence is off), for
// the test harness and recovery experiments.
func (p *ProxyClient) DiskStore() *diskcache.Store { return p.disk }

// noteRecoveredLocked settles a recovered file's revalidation verdict on
// its first server mtime observation after restart. Called before the
// caller's own mtime reconciliation, so the clean-block count reflects what
// recovery carried over, not what reconciliation is about to drop.
func (sc *sessionCache) noteRecoveredLocked(key string, fc *cachedFile, serverMtime nfs3.Time) {
	if sc.recovered == nil || !sc.recovered[key] {
		return
	}
	delete(sc.recovered, key)
	if sc.recMet == nil {
		return
	}
	var clean int64
	for bn := range fc.blocks {
		if !fc.dirty[bn] {
			clean++
		}
	}
	if clean == 0 {
		return
	}
	if fc.mtime == serverMtime {
		sc.recMet.revalidated.Add(clean)
	} else {
		sc.recMet.refetched.Add(clean)
	}
}
