package core

import (
	"container/list"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nfs3"
	"repro/internal/obs"
)

// sessionCache is the GVFS per-session client-side disk cache: file
// attributes, directory lookup results, and data blocks, plus dirty-block
// state for write-back sessions. Unlike the kernel client's caches, entries
// are by default not timed out — their validity is governed by the session's
// consistency protocol (invalidation polling or delegation callbacks), which
// is the heart of the paper's design. A session may additionally bound the
// metadata caches with TTLs and capacity limits (metaPolicy); the proxy
// enables TTLs only under the polling model, which already tolerates
// staleness up to the poll window.
type sessionCache struct {
	bs int

	mu  sync.Mutex
	pol metaPolicy
	// now reads the session's virtual clock for TTL stamps; nil freezes the
	// clock at zero, which with zero TTLs reproduces the untimed behavior.
	now func() time.Duration
	met *metaCounters

	attrs    map[string]attrEnt     // FH key -> attributes (validity = presence)
	lookups  map[string]lookupEnt   // dir key + "\x00" + name -> child handle
	files    map[string]*cachedFile // FH key -> data blocks
	listings map[string]dirListing  // dir key -> complete directory listing
	// dirNames indexes the lookup cache by directory, so invalidating a
	// directory handle flushes its dentries and negatives in one sweep.
	dirNames map[string]map[string]bool

	attrLRU, lookupLRU, listLRU *keyLRU

	lru  *lruList
	maxB int64

	// persist, when non-nil, mirrors data blocks and their dirty state into
	// the crash-consistent disk store. Every call site already holds sc.mu.
	persist blockPersister
	// recovered marks files restored from disk whose clean blocks await
	// their first server attribute observation (revalidated vs refetched).
	recovered map[string]bool
	recMet    *recoveryCounters
}

// metaPolicy bounds the metadata caches: TTLs in virtual time (0 = entries
// live until the consistency protocol invalidates them) and per-cache entry
// caps (0 = unbounded) enforced by LRU eviction.
type metaPolicy struct {
	attrTTL   time.Duration
	dentryTTL time.Duration
	negTTL    time.Duration

	maxAttrs    int
	maxDentries int
	maxListings int
}

// metaCounters receives the cache-internal metadata events; any field (or
// the whole struct) may be nil, which disables reporting.
type metaCounters struct {
	expiries   *obs.Counter // TTL expiries across all metadata caches
	evictions  *obs.Counter // capacity evictions across all metadata caches
	dirFlushes *obs.Counter // dentries+negatives flushed by a dir invalidation
}

func (m *metaCounters) expiry(n int64) {
	if m != nil && m.expiries != nil && n > 0 {
		m.expiries.Add(n)
	}
}

func (m *metaCounters) eviction(n int64) {
	if m != nil && m.evictions != nil && n > 0 {
		m.evictions.Add(n)
	}
}

func (m *metaCounters) dirFlush(n int64) {
	if m != nil && m.dirFlushes != nil && n > 0 {
		m.dirFlushes.Add(n)
	}
}

// attrEnt is one cached attribute record, stamped with its fetch time so a
// TTL policy can expire it.
type attrEnt struct {
	attr    nfs3.Fattr
	fetched time.Duration
}

// dirListing caches a complete (single-page) READDIR result, tagged like
// negative lookups with the directory mtime it was observed under.
type dirListing struct {
	entries  []nfs3.DirEntry
	dirMtime nfs3.Time
}

type lookupEnt struct {
	fh nfs3.FH
	// negative records a NOENT result: the name is known not to exist.
	negative bool
	// dirMtime tags the entry with the directory modification time it was
	// observed under; the entry is only valid while the cached directory
	// attributes still carry that mtime, so a directory invalidation
	// followed by revalidation of a *changed* directory cannot revive
	// stale name resolutions.
	dirMtime nfs3.Time
	fetched  time.Duration
}

type cachedFile struct {
	// mtime is the server mtime the clean blocks correspond to.
	mtime nfs3.Time
	size  uint64
	// localChange > 0 while dirty data is buffered; it perturbs the mtime
	// served to the kernel client so local writes remain visible.
	localChange uint32
	blocks      map[uint64][]byte
	dirty       map[uint64]bool
	// dirtyGen counts the writes that dirtied each block. A flush records
	// the generation it copied and only marks the block clean if no newer
	// write landed while its WRITE was in flight; otherwise the block stays
	// dirty and the newer data is flushed next round. Entries are never
	// deleted so an in-flight flush can't match a re-dirtied block's reset
	// generation.
	dirtyGen map[uint64]uint64
	// flushing marks blocks with a WRITE RPC in flight: takeDirty refuses
	// them so concurrent flushers (periodic flush, recall chase, pre-SETATTR
	// flush, parallel flush workers) never double-issue a block.
	flushing map[uint64]bool
	// fetching marks blocks with a prefetch READ in flight: readahead skips
	// them and demand reads wait for the fetch instead of issuing a
	// duplicate wide-area READ.
	fetching map[uint64]bool
	// stamps records the virtual time each block's bytes entered the cache
	// (server fetch or local write), feeding the staleness observatory: a
	// cache hit's measured age is relative to this stamp.
	stamps map[uint64]time.Duration
}

func newSessionCache(blockSize int, maxBytes int64) *sessionCache {
	return &sessionCache{
		bs:        blockSize,
		attrs:     make(map[string]attrEnt),
		lookups:   make(map[string]lookupEnt),
		files:     make(map[string]*cachedFile),
		listings:  make(map[string]dirListing),
		dirNames:  make(map[string]map[string]bool),
		attrLRU:   newKeyLRU(),
		lookupLRU: newKeyLRU(),
		listLRU:   newKeyLRU(),
		lru:       newLRUList(),
		maxB:      maxBytes,
	}
}

// setMetaPolicy installs the session's metadata cache policy, clock, and
// event counters. The proxy calls it once, at construction.
func (sc *sessionCache) setMetaPolicy(now func() time.Duration, pol metaPolicy, met *metaCounters) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.now = now
	sc.pol = pol
	sc.met = met
}

// --- attributes ---------------------------------------------------------

func (sc *sessionCache) nowLocked() time.Duration {
	if sc.now == nil {
		return 0
	}
	return sc.now()
}

// expiredLocked reports whether an entry fetched at the given stamp has
// outlived ttl (0 disables the TTL).
func (sc *sessionCache) expiredLocked(fetched, ttl time.Duration) bool {
	return ttl > 0 && sc.nowLocked()-fetched >= ttl
}

// attrLocked returns the valid cached attributes for key, expiring a
// TTL-stale entry on the way.
func (sc *sessionCache) attrLocked(key string) (nfs3.Fattr, bool) {
	ent, ok := sc.attrs[key]
	if !ok {
		return nfs3.Fattr{}, false
	}
	if sc.expiredLocked(ent.fetched, sc.pol.attrTTL) {
		sc.delAttrLocked(key)
		sc.met.expiry(1)
		return nfs3.Fattr{}, false
	}
	sc.attrLRU.bump(key)
	return ent.attr, true
}

// setAttrLocked installs attributes for key, evicting the least recently
// used entry when the cache is over its cap.
func (sc *sessionCache) setAttrLocked(key string, a nfs3.Fattr) {
	sc.attrs[key] = attrEnt{attr: a, fetched: sc.nowLocked()}
	sc.attrLRU.bump(key)
	for sc.pol.maxAttrs > 0 && len(sc.attrs) > sc.pol.maxAttrs {
		victim, ok := sc.attrLRU.evict()
		if !ok {
			break
		}
		delete(sc.attrs, victim)
		sc.met.eviction(1)
	}
}

func (sc *sessionCache) delAttrLocked(key string) {
	delete(sc.attrs, key)
	sc.attrLRU.remove(key)
}

// getAttr returns the cached attributes for fh, if valid. When the file has
// buffered dirty data, the returned attributes are adjusted (size, perturbed
// mtime) so the caller observes its own writes.
func (sc *sessionCache) getAttr(fh nfs3.FH) (nfs3.Fattr, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	a, ok := sc.attrLocked(fh.Key())
	if !ok {
		return nfs3.Fattr{}, false
	}
	return sc.adjustLocked(fh.Key(), a), true
}

func (sc *sessionCache) adjustLocked(key string, a nfs3.Fattr) nfs3.Fattr {
	if fc, ok := sc.files[key]; ok && fc.localChange > 0 {
		a.Size = fc.size
		a.Mtime.Nsec += fc.localChange
	}
	return a
}

// putAttr installs server-observed attributes, reconciling the data cache:
// a changed mtime drops clean blocks.
func (sc *sessionCache) putAttr(fh nfs3.FH, a nfs3.Fattr) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	if fc, ok := sc.files[key]; ok {
		sc.noteRecoveredLocked(key, fc, a.Mtime)
		if fc.mtime != a.Mtime {
			sc.dropCleanLocked(key, fc)
			fc.mtime = a.Mtime
			if fc.localChange == 0 {
				fc.size = a.Size
			} else if a.Size > fc.size {
				fc.size = a.Size
			}
		} else if fc.localChange == 0 {
			fc.size = a.Size
		}
		sc.persistMetaLocked(key, fc)
	}
	sc.setAttrLocked(key, a)
}

// invalidateAttr drops the attribute entry for fh, forcing revalidation on
// next access. Data blocks are kept; they are reconciled against the next
// server-observed attributes. This is the callback-recall channel: recalls
// are precise — destructive directory operations carry the removed name and
// recall the victim handle separately — so the file's dentries need no
// blanket flush here.
func (sc *sessionCache) invalidateAttr(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.delAttrLocked(fh.Key())
}

// invalidateHandle serves the GETINV polling channel, which conveys only
// handles — the client cannot tell which binding under a changed directory
// moved. So besides the attributes, a directory's dentries, negatives, and
// cached listing are all flushed: any binding observed under the old
// contents is suspect. The flush granularity matches the invalidation
// channel's granularity.
func (sc *sessionCache) invalidateHandle(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	sc.delAttrLocked(key)
	sc.flushDirLocked(key)
}

// flushDirLocked drops every dentry, negative entry, and cached listing
// hanging off the directory key.
func (sc *sessionCache) flushDirLocked(dirKey string) {
	names := sc.dirNames[dirKey]
	for name := range names {
		lk := dirKey + "\x00" + name
		delete(sc.lookups, lk)
		sc.lookupLRU.remove(lk)
	}
	if n := len(names); n > 0 {
		sc.met.dirFlush(int64(n))
	}
	delete(sc.dirNames, dirKey)
	if _, ok := sc.listings[dirKey]; ok {
		delete(sc.listings, dirKey)
		sc.listLRU.remove(dirKey)
	}
}

// invalidateAllAttrs implements the force-invalidate flag: the entire
// attribute (and lookup) cache is dropped.
func (sc *sessionCache) invalidateAllAttrs() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.attrs = make(map[string]attrEnt)
	sc.lookups = make(map[string]lookupEnt)
	sc.listings = make(map[string]dirListing)
	sc.dirNames = make(map[string]map[string]bool)
	sc.attrLRU = newKeyLRU()
	sc.lookupLRU = newKeyLRU()
	sc.listLRU = newKeyLRU()
}

// forget removes every trace of fh (REMOVE, stale handle).
func (sc *sessionCache) forget(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	sc.delAttrLocked(key)
	sc.flushDirLocked(key)
	if fc, ok := sc.files[key]; ok {
		sc.dropCleanLocked(key, fc)
		delete(sc.files, key)
		if sc.persist != nil {
			sc.persist.DropFile(key)
		}
	}
}

// --- lookup cache -------------------------------------------------------

func cacheLookupKey(dir nfs3.FH, name string) string { return dir.Key() + "\x00" + name }

// getLookup returns a cached name resolution (possibly negative); it is
// only valid while the directory's attributes are validly cached.
//
// Positive bindings additionally require the caller to hold valid cached
// attributes for the child (checked at the serving site): per-file
// invalidations cover every way a binding can break (REMOVE and RENAME
// invalidate the victim's handle), so a directory mtime change alone —
// e.g. an unrelated file created next to it — does not force re-lookups of
// every name. Negative entries have no child to validate, so they are
// additionally tagged with the directory mtime they were observed under and
// die on any directory change.
func (sc *sessionCache) getLookup(dir nfs3.FH, name string) (fh nfs3.FH, negative, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dirAttr, dirValid := sc.attrLocked(dir.Key())
	if !dirValid {
		return nfs3.FH{}, false, false
	}
	lk := cacheLookupKey(dir, name)
	ent, ok := sc.lookups[lk]
	if !ok {
		return nfs3.FH{}, false, false
	}
	ttl := sc.pol.dentryTTL
	if ent.negative {
		ttl = sc.pol.negTTL
	}
	if sc.expiredLocked(ent.fetched, ttl) {
		sc.dropLookupKeyLocked(dir.Key(), name)
		sc.met.expiry(1)
		return nfs3.FH{}, false, false
	}
	if ent.negative && ent.dirMtime != dirAttr.Mtime {
		return nfs3.FH{}, false, false
	}
	sc.lookupLRU.bump(lk)
	return ent.fh, ent.negative, true
}

// putLookup caches a resolution; fh zero with negative set records NOENT.
// The entry is skipped if the directory's attributes are not cached (there
// is nothing to validate it against).
func (sc *sessionCache) putLookup(dir nfs3.FH, name string, fh nfs3.FH) {
	sc.putLookupEnt(dir, name, fh, false)
}

func (sc *sessionCache) putNegLookup(dir nfs3.FH, name string) {
	sc.putLookupEnt(dir, name, nfs3.FH{}, true)
}

func (sc *sessionCache) putLookupEnt(dir nfs3.FH, name string, fh nfs3.FH, negative bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dirKey := dir.Key()
	dirAttr, dirValid := sc.attrLocked(dirKey)
	if !dirValid {
		return
	}
	lk := cacheLookupKey(dir, name)
	sc.lookups[lk] = lookupEnt{
		fh: fh, negative: negative, dirMtime: dirAttr.Mtime, fetched: sc.nowLocked(),
	}
	names := sc.dirNames[dirKey]
	if names == nil {
		names = make(map[string]bool)
		sc.dirNames[dirKey] = names
	}
	names[name] = true
	sc.lookupLRU.bump(lk)
	for sc.pol.maxDentries > 0 && len(sc.lookups) > sc.pol.maxDentries {
		victim, ok := sc.lookupLRU.evict()
		if !ok {
			break
		}
		delete(sc.lookups, victim)
		if d, n, split := splitLookupKey(victim); split {
			if ns := sc.dirNames[d]; ns != nil {
				delete(ns, n)
				if len(ns) == 0 {
					delete(sc.dirNames, d)
				}
			}
		}
		sc.met.eviction(1)
	}
}

// splitLookupKey recovers (dir key, name) from a lookup cache key.
func splitLookupKey(lk string) (dirKey, name string, ok bool) {
	for i := len(lk) - 1; i >= 0; i-- {
		if lk[i] == 0 {
			return lk[:i], lk[i+1:], true
		}
	}
	return "", "", false
}

// putDirListing caches a complete directory listing observed alongside the
// currently cached directory attributes.
func (sc *sessionCache) putDirListing(dir nfs3.FH, entries []nfs3.DirEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dirKey := dir.Key()
	dirAttr, ok := sc.attrLocked(dirKey)
	if !ok {
		return
	}
	cp := make([]nfs3.DirEntry, len(entries))
	copy(cp, entries)
	sc.listings[dirKey] = dirListing{entries: cp, dirMtime: dirAttr.Mtime}
	sc.listLRU.bump(dirKey)
	for sc.pol.maxListings > 0 && len(sc.listings) > sc.pol.maxListings {
		victim, ok := sc.listLRU.evict()
		if !ok {
			break
		}
		delete(sc.listings, victim)
		sc.met.eviction(1)
	}
}

// getDirListing returns the cached complete listing if it is still coherent
// with the cached directory attributes.
func (sc *sessionCache) getDirListing(dir nfs3.FH) ([]nfs3.DirEntry, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	dirKey := dir.Key()
	dirAttr, ok := sc.attrLocked(dirKey)
	if !ok {
		return nil, false
	}
	l, ok := sc.listings[dirKey]
	if !ok || l.dirMtime != dirAttr.Mtime {
		return nil, false
	}
	sc.listLRU.bump(dirKey)
	return l.entries, true
}

func (sc *sessionCache) dropLookup(dir nfs3.FH, name string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.dropLookupKeyLocked(dir.Key(), name)
}

func (sc *sessionCache) dropLookupKeyLocked(dirKey, name string) {
	lk := dirKey + "\x00" + name
	delete(sc.lookups, lk)
	sc.lookupLRU.remove(lk)
	if ns := sc.dirNames[dirKey]; ns != nil {
		delete(ns, name)
		if len(ns) == 0 {
			delete(sc.dirNames, dirKey)
		}
	}
}

// --- data blocks ----------------------------------------------------------

func (sc *sessionCache) fileFor(key string) *cachedFile {
	fc, ok := sc.files[key]
	if !ok {
		fc = &cachedFile{
			blocks:   make(map[uint64][]byte),
			dirty:    make(map[uint64]bool),
			dirtyGen: make(map[uint64]uint64),
			flushing: make(map[uint64]bool),
			fetching: make(map[uint64]bool),
			stamps:   make(map[uint64]time.Duration),
		}
		sc.files[key] = fc
	}
	return fc
}

// getBlock returns the cached block, and whether it was present.
func (sc *sessionCache) getBlock(fh nfs3.FH, bn uint64) ([]byte, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	if !ok {
		return nil, false
	}
	b, ok := fc.blocks[bn]
	if ok && !fc.dirty[bn] {
		sc.lru.touch(fh.Key(), bn)
	}
	return b, ok
}

// putCleanBlock caches data fetched from the server for (fh, bn), tagged
// with the server attributes observed alongside it.
func (sc *sessionCache) putCleanBlock(fh nfs3.FH, bn uint64, data []byte, attr nfs3.Fattr) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc := sc.fileFor(key)
	sc.noteRecoveredLocked(key, fc, attr.Mtime)
	if fc.mtime != attr.Mtime {
		sc.dropCleanLocked(key, fc)
		fc.mtime = attr.Mtime
		if fc.localChange == 0 {
			fc.size = attr.Size
		}
	}
	if fc.dirty[bn] {
		return // never overwrite dirty data with server state
	}
	// Tail blocks (the EOF path) are stored at their natural length; full
	// blocks are padded to the block size. Serving code must therefore never
	// derive in-block offsets from len(block).
	n := len(data)
	if n > sc.bs {
		n = sc.bs
	}
	block := make([]byte, n)
	copy(block, data[:n])
	if _, existed := fc.blocks[bn]; existed {
		sc.lru.remove(key, bn)
	}
	fc.blocks[bn] = block
	fc.stamps[bn] = sc.nowLocked()
	sc.lru.add(key, bn, len(block))
	if sc.persist != nil {
		sc.persist.PutBlock(key, bn, block, false, fc.dirtyGen[bn])
		sc.persistMetaLocked(key, fc)
	}
	sc.evictLocked()
}

// --- fetch stamps (staleness observatory) ---------------------------------
//
// The observatory measures a cache hit's age from the virtual time its bytes
// entered the cache. Attribute and lookup entries already carry fetch stamps
// for the TTL policy; blocks carry theirs in cachedFile.stamps. All getters
// are ok=false when the entry is absent — the caller then skips the observe
// rather than inventing an age.

// attrStamp reports when fh's cached attributes were fetched.
func (sc *sessionCache) attrStamp(fh nfs3.FH) (time.Duration, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ent, ok := sc.attrs[fh.Key()]
	return ent.fetched, ok
}

// lookupStamp reports when the cached resolution of name under dir was
// fetched.
func (sc *sessionCache) lookupStamp(dir nfs3.FH, name string) (time.Duration, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ent, ok := sc.lookups[cacheLookupKey(dir, name)]
	return ent.fetched, ok
}

// blockStamp reports when block bn of fh entered the cache.
func (sc *sessionCache) blockStamp(fh nfs3.FH, bn uint64) (time.Duration, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	if !ok {
		return 0, false
	}
	st, ok := fc.stamps[bn]
	return st, ok
}

// updateAfterWrite reconciles the cache with a forwarded WRITE's reply,
// using the weak-cache-consistency data to recognize our own modification:
// when the pre-op mtime matches the cached one, the mtime advance is ours
// and cached blocks stay valid.
func (sc *sessionCache) updateAfterWrite(fh nfs3.FH, wcc nfs3.WccData) {
	if !wcc.After.Present {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	after := wcc.After.Attr
	if fc, ok := sc.files[key]; ok {
		if wcc.Before.Present {
			// The pre-op mtime is the server state the surviving clean blocks
			// are judged against: unchanged since the crash means revalidated.
			sc.noteRecoveredLocked(key, fc, wcc.Before.Attr.Mtime)
		}
		ours := wcc.Before.Present && wcc.Before.Attr.Mtime == fc.mtime
		if !ours && fc.mtime != after.Mtime {
			sc.dropCleanLocked(key, fc)
		}
		fc.mtime = after.Mtime
		if fc.localChange == 0 {
			fc.size = after.Size
		} else if after.Size > fc.size {
			fc.size = after.Size
		}
		sc.persistMetaLocked(key, fc)
	}
	sc.setAttrLocked(key, after)
}

// writeDirty buffers a write locally (write-back / write delegation),
// returning the resulting file size.
func (sc *sessionCache) writeDirty(fh nfs3.FH, off uint64, data []byte) uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc := sc.fileFor(key)
	bs := uint64(sc.bs)
	for n := 0; n < len(data); {
		pos := off + uint64(n)
		bn := pos / bs
		bo := pos % bs
		chunk := int(bs - bo)
		if rem := len(data) - n; chunk > rem {
			chunk = rem
		}
		block, ok := fc.blocks[bn]
		if !ok {
			block = make([]byte, bs)
			fc.blocks[bn] = block
		} else {
			if !fc.dirty[bn] {
				sc.lru.remove(key, bn)
			}
			if uint64(len(block)) < bs {
				// A short-stored tail block is being overwritten: grow it to
				// a full block so dirty blocks are always full-sized.
				grown := make([]byte, bs)
				copy(grown, block)
				block = grown
				fc.blocks[bn] = block
			}
		}
		fc.dirty[bn] = true
		fc.dirtyGen[bn]++
		fc.stamps[bn] = sc.nowLocked()
		copy(block[bo:], data[n:n+chunk])
		if sc.persist != nil {
			sc.persist.PutBlock(key, bn, block, true, fc.dirtyGen[bn])
		}
		n += chunk
	}
	if end := off + uint64(len(data)); end > fc.size {
		fc.size = end
	}
	fc.localChange++
	sc.persistMetaLocked(key, fc)
	return fc.size
}

// dirtyBlocks returns the sorted dirty block numbers of fh.
func (sc *sessionCache) dirtyBlocks(fh nfs3.FH) []uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, len(fc.dirty))
	for bn := range fc.dirty {
		out = append(out, bn)
	}
	sortUint64(out)
	return out
}

// dirtyFiles lists handles with buffered dirty data, in stable key order so
// flush passes issue their WRITEs in the same order every run. The handles
// are reconstructed from map keys.
func (sc *sessionCache) dirtyFiles() []nfs3.FH {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	keys := make([]string, 0, len(sc.files))
	for key, fc := range sc.files {
		if len(fc.dirty) > 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var out []nfs3.FH
	for _, key := range keys {
		if fh, err := nfs3.FHFromBytes([]byte(key)); err == nil {
			out = append(out, fh)
		}
	}
	return out
}

// takeDirty extracts one dirty block for flushing: its data (bounded by the
// file size), start offset, and the block's dirty generation, which the
// flusher passes back to flushed. ok is false when bn is no longer dirty or
// when another flusher already has a WRITE for it in flight; a successful
// take marks the block in flight until endFlush.
func (sc *sessionCache) takeDirty(fh nfs3.FH, bn uint64) (data []byte, off uint64, gen uint64, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc, exists := sc.files[key]
	if !exists || !fc.dirty[bn] || fc.flushing[bn] {
		return nil, 0, 0, false
	}
	block := fc.blocks[bn]
	bs := uint64(sc.bs)
	off = bn * bs
	count := bs
	if off+count > fc.size {
		if off >= fc.size {
			// Block wholly beyond a truncation; drop it.
			delete(fc.dirty, bn)
			delete(fc.blocks, bn)
			delete(fc.stamps, bn)
			if sc.persist != nil {
				sc.persist.DropBlock(key, bn)
			}
			return nil, 0, 0, false
		}
		count = fc.size - off
	}
	data = make([]byte, count)
	copy(data, block[:count])
	fc.flushing[bn] = true
	return data, off, fc.dirtyGen[bn], true
}

// takeDirtyRun extracts a run of consecutive dirty blocks starting at bn,
// staged into one pooled buffer for a single coalesced WRITE of up to
// maxBytes. Every block in the run is marked in flight until endFlush; gens
// carries each block's dirty generation so the flusher can pass them back to
// flushed individually (a racing write dirties just its own block again).
// The staging buffer is pool-owned: the caller must bufpool.Put it once the
// WRITE RPC has completed. ok is false when bn itself is not takeable, under
// exactly the takeDirty rules.
func (sc *sessionCache) takeDirtyRun(fh nfs3.FH, bn uint64, maxBytes int) (data []byte, off uint64, bns, gens []uint64, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc, exists := sc.files[key]
	if !exists || !fc.dirty[bn] || fc.flushing[bn] {
		return nil, 0, nil, nil, false
	}
	bs := uint64(sc.bs)
	off = bn * bs
	if off >= fc.size {
		// Block wholly beyond a truncation; drop it.
		delete(fc.dirty, bn)
		delete(fc.blocks, bn)
		delete(fc.stamps, bn)
		if sc.persist != nil {
			sc.persist.DropBlock(key, bn)
		}
		return nil, 0, nil, nil, false
	}
	if maxBytes < sc.bs {
		maxBytes = sc.bs
	}
	// First measure the run, then stage it, so the buffer is sized once.
	var total uint64
	for b := bn; ; b++ {
		blkOff := b * bs
		if blkOff >= fc.size || !fc.dirty[b] || fc.flushing[b] {
			break
		}
		count := bs
		if blkOff+count > fc.size {
			count = fc.size - blkOff
		}
		if len(bns) > 0 && total+count > uint64(maxBytes) {
			break
		}
		bns = append(bns, b)
		gens = append(gens, fc.dirtyGen[b])
		total += count
		if count < bs {
			break // short tail ends the run at EOF
		}
	}
	data = bufpool.Get(int(total))
	pos := uint64(0)
	for _, b := range bns {
		count := bs
		if b*bs+count > fc.size {
			count = fc.size - b*bs
		}
		// Dirty blocks are always stored full-sized (see writeDirty), so the
		// slice below cannot run past the block.
		copy(data[pos:pos+count], fc.blocks[b][:count])
		fc.flushing[b] = true
		pos += count
	}
	return data, off, bns, gens, true
}

// endFlush clears a block's in-flight flush mark (success or failure).
func (sc *sessionCache) endFlush(fh nfs3.FH, bn uint64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc, ok := sc.files[fh.Key()]; ok {
		delete(fc.flushing, bn)
	}
}

// flushInFlight reports whether any flush of fh is still in flight.
func (sc *sessionCache) flushInFlight(fh nfs3.FH) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	return ok && len(fc.flushing) > 0
}

// tryBeginFetch claims (fh, bn) for a prefetch READ. It refuses blocks that
// are already cached, dirty, or being fetched, so concurrent readahead and
// demand reads never double-issue the same wide-area READ.
func (sc *sessionCache) tryBeginFetch(fh nfs3.FH, bn uint64) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc := sc.fileFor(fh.Key())
	if _, cached := fc.blocks[bn]; cached || fc.dirty[bn] || fc.fetching[bn] {
		return false
	}
	fc.fetching[bn] = true
	return true
}

// endFetch clears a block's in-flight prefetch mark.
func (sc *sessionCache) endFetch(fh nfs3.FH, bn uint64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fc, ok := sc.files[fh.Key()]; ok {
		delete(fc.fetching, bn)
	}
}

// fetchInFlight reports whether a prefetch of (fh, bn) is in flight.
func (sc *sessionCache) fetchInFlight(fh nfs3.FH, bn uint64) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	return ok && fc.fetching[bn]
}

// flushed marks a dirty block clean after its WRITE succeeded, adopting the
// server's post-write attributes. The full weak-cache-consistency data
// matters here: adopting the post-op mtime blindly would also adopt any
// foreign commit that slipped in before our flush, silently revalidating
// clean blocks that predate it — the next invalidation for this handle only
// drops attributes and trusts the mtime comparison to reconcile data. When
// the pre-op mtime does not match the cached one, another writer interleaved
// and every clean copy is suspect.
func (sc *sessionCache) flushed(fh nfs3.FH, bn uint64, gen uint64, wcc nfs3.WccData) {

	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc, exists := sc.files[key]
	if !exists {
		return
	}
	// The WRITE is no longer in flight; a subsequent takeDirty may re-flush
	// the block (it stays dirty below when a newer write raced us).
	delete(fc.flushing, bn)
	if wcc.Before.Present {
		sc.noteRecoveredLocked(key, fc, wcc.Before.Attr.Mtime)
	}
	after := wcc.After
	if after.Present && wcc.Before.Present &&
		wcc.Before.Attr.Mtime != fc.mtime && fc.mtime != after.Attr.Mtime {
		sc.dropCleanLocked(key, fc)
	}
	// Only mark the block clean if it is still the data we flushed: a write
	// that landed while the WRITE RPC was in flight bumps the generation,
	// and clearing the dirty bit then would lose that newer data.
	if fc.dirty[bn] && fc.dirtyGen[bn] == gen {
		delete(fc.dirty, bn)
		sc.lru.add(key, bn, sc.bs)
		// The WRITE's success proves these bytes are the server's latest
		// committed state for this block, superseding any commit that
		// interleaved since the local write. Re-stamp so the staleness
		// observatory ages the block from this flush, not from the
		// (possibly much older) local write it carried.
		fc.stamps[bn] = sc.nowLocked()
		if sc.persist != nil {
			sc.persist.MarkClean(key, bn, gen)
		}
	}
	if after.Present {
		fc.mtime = after.Attr.Mtime
		if len(fc.dirty) == 0 {
			fc.localChange = 0
			fc.size = after.Attr.Size
		}
		sc.setAttrLocked(key, after.Attr)
	}
	sc.persistMetaLocked(key, fc)
	sc.evictLocked()
}

// hasDirty reports whether fh has buffered dirty blocks.
func (sc *sessionCache) hasDirty(fh nfs3.FH) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fc, ok := sc.files[fh.Key()]
	return ok && len(fc.dirty) > 0
}

// dropDirty abandons dirty data (file removed, or corruption detected after
// crash recovery per Section 4.3.4).
func (sc *sessionCache) dropDirty(fh nfs3.FH) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := fh.Key()
	fc, ok := sc.files[key]
	if !ok {
		return
	}
	for bn := range fc.dirty {
		delete(fc.dirty, bn)
		delete(fc.blocks, bn)
		delete(fc.stamps, bn)
		if sc.persist != nil {
			sc.persist.DropBlock(key, bn)
		}
	}
	fc.localChange = 0
	sc.persistMetaLocked(key, fc)
}

func (sc *sessionCache) dropCleanLocked(key string, fc *cachedFile) {
	for bn := range fc.blocks {
		if !fc.dirty[bn] {
			sc.lru.remove(key, bn)
			delete(fc.blocks, bn)
			delete(fc.stamps, bn)
			if sc.persist != nil {
				sc.persist.DropBlock(key, bn)
			}
		}
	}
}

func (sc *sessionCache) evictLocked() {
	for sc.lru.bytes > sc.maxB {
		key, bn, ok := sc.lru.evict()
		if !ok {
			return
		}
		if fc, exists := sc.files[key]; exists {
			delete(fc.blocks, bn)
			delete(fc.stamps, bn)
		}
		if sc.persist != nil {
			sc.persist.DropBlock(key, bn)
		}
	}
}

// stats snapshot for instrumentation.
type cacheStats struct {
	Attrs   int
	Lookups int
	Files   int
	Bytes   int64
}

func (sc *sessionCache) stats() cacheStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return cacheStats{Attrs: len(sc.attrs), Lookups: len(sc.lookups), Files: len(sc.files), Bytes: sc.lru.bytes}
}

// --- byte-bounded LRU over clean blocks ----------------------------------

type lruList struct {
	order *list.List
	index map[lruKey]*list.Element
	bytes int64
}

type lruKey struct {
	file  string
	block uint64
}

type lruRef struct {
	key  lruKey
	size int
}

func newLRUList() *lruList {
	return &lruList{order: list.New(), index: make(map[lruKey]*list.Element)}
}

func (l *lruList) add(file string, block uint64, size int) {
	k := lruKey{file, block}
	if el, ok := l.index[k]; ok {
		l.order.MoveToFront(el)
		return
	}
	l.index[k] = l.order.PushFront(&lruRef{key: k, size: size})
	l.bytes += int64(size)
}

func (l *lruList) touch(file string, block uint64) {
	if el, ok := l.index[lruKey{file, block}]; ok {
		l.order.MoveToFront(el)
	}
}

func (l *lruList) remove(file string, block uint64) {
	k := lruKey{file, block}
	if el, ok := l.index[k]; ok {
		l.bytes -= int64(el.Value.(*lruRef).size)
		l.order.Remove(el)
		delete(l.index, k)
	}
}

func (l *lruList) evict() (file string, block uint64, ok bool) {
	el := l.order.Back()
	if el == nil {
		return "", 0, false
	}
	ref := el.Value.(*lruRef)
	l.order.Remove(el)
	delete(l.index, ref.key)
	l.bytes -= int64(ref.size)
	return ref.key.file, ref.key.block, true
}

// --- entry-count LRU over string-keyed metadata caches --------------------

// keyLRU orders string keys by recency for the metadata caches' capacity
// eviction. Unlike lruList it counts entries, not bytes: metadata records
// are small and uniform.
type keyLRU struct {
	order *list.List
	index map[string]*list.Element
}

func newKeyLRU() *keyLRU {
	return &keyLRU{order: list.New(), index: make(map[string]*list.Element)}
}

// bump inserts key at the front, or moves an existing key there.
func (l *keyLRU) bump(key string) {
	if el, ok := l.index[key]; ok {
		l.order.MoveToFront(el)
		return
	}
	l.index[key] = l.order.PushFront(key)
}

func (l *keyLRU) remove(key string) {
	if el, ok := l.index[key]; ok {
		l.order.Remove(el)
		delete(l.index, key)
	}
}

// evict removes and returns the least recently used key.
func (l *keyLRU) evict() (string, bool) {
	el := l.order.Back()
	if el == nil {
		return "", false
	}
	key := el.Value.(string)
	l.order.Remove(el)
	delete(l.index, key)
	return key, true
}

func sortUint64(s []uint64) {
	// Insertion sort: dirty lists are small and often nearly sorted.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
