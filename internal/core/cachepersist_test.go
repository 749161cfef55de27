package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/diskcache"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
)

// TestAdoptionEvictionTrimsDiskStore seeds a disk store with more clean
// bytes than the restarted proxy's CacheBytes, plus dirty blocks. Adopting
// it must evict clean blocks down to the memory budget and drop each
// evicted block from disk through the normal DropBlock hook, so the store
// keeps exactly what memory kept: a second open recovers that set, and no
// dirty block is ever squeezed out.
func TestAdoptionEvictionTrimsDiskStore(t *testing.T) {
	const (
		bs          = 4096
		cacheBytes  = 8 * bs
		cleanBlocks = 20
		dirtyBlocks = 4
	)
	dir := t.TempDir()
	block := func(tag string, bn uint64) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%s%03d", tag, bn)), bs/4)
	}

	seed, _, err := diskcache.Open(dir, 0, diskcache.SyncNone)
	if err != nil {
		t.Fatalf("seed open: %v", err)
	}
	for bn := uint64(0); bn < cleanBlocks; bn++ {
		seed.PutBlock("clean", bn, block("c", bn), false, 0)
	}
	seed.SetFileMeta("clean", 10, 0, cleanBlocks*bs, 0)
	for bn := uint64(0); bn < dirtyBlocks; bn++ {
		seed.PutBlock("dirty", bn, block("d", bn), true, bn+1)
	}
	seed.SetFileMeta("dirty", 20, 0, dirtyBlocks*bs, 1)
	if err := seed.Close(); err != nil {
		t.Fatalf("seed close: %v", err)
	}

	clk := vclock.NewVirtual()
	defer clk.Stop()
	n := simnet.New(clk, simnet.Params{RTT: time.Millisecond})
	kept := map[string]map[uint64][]byte{}
	done := make(chan struct{})
	clk.Go("test", func() {
		defer close(done)
		if _, err := n.Host("server").Listen(":111"); err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := n.Host("client").Dial("server:111")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		cfg := Config{BlockSize: bs, CacheBytes: cacheBytes, DiskCacheDir: dir, DiskCacheSyncPolicy: "none"}
		p := NewProxyClient(clk, cfg, sunrpc.NewClient(clk, conn, sunrpc.NoneCred()), SessionCred{SessionKey: "s", ClientID: "C1"})
		if p.DiskStore() == nil {
			t.Error("disk store did not open")
			return
		}

		p.cache.mu.Lock()
		var memClean int64
		for key, fc := range p.cache.files {
			kept[key] = map[uint64][]byte{}
			for bn, data := range fc.blocks {
				kept[key][bn] = data
				if !fc.dirty[bn] {
					memClean += int64(len(data))
				}
			}
		}
		p.cache.mu.Unlock()
		if memClean == 0 || memClean > cacheBytes {
			t.Errorf("memory kept %d clean bytes, want (0, %d]", memClean, cacheBytes)
		}
		_, _, diskBytes := p.DiskStore().Usage()
		if diskClean := diskBytes - dirtyBlocks*bs; diskClean != memClean {
			t.Errorf("disk store holds %d clean bytes, memory %d (budget %d)", diskClean, memClean, cacheBytes)
		}
		for bn := uint64(0); bn < dirtyBlocks; bn++ {
			if !bytes.Equal(kept["dirty"][bn], block("d", bn)) {
				t.Errorf("dirty block %d lost in adoption", bn)
			}
		}
		p.Crash()
	})
	<-done

	s, rec, err := diskcache.Open(dir, 0, diskcache.SyncNone)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	got := 0
	for key, fs := range rec.Files {
		for bn, b := range fs.Blocks {
			got++
			if want, ok := kept[key][bn]; !ok || !bytes.Equal(b.Data, want) {
				t.Errorf("reopen recovered %s/%d, which memory did not keep", key, bn)
			}
			if key == "dirty" && (!b.Dirty || b.Gen != bn+1) {
				t.Errorf("dirty block %d recovered as dirty=%v gen=%d", bn, b.Dirty, b.Gen)
			}
		}
	}
	want := 0
	for _, blocks := range kept {
		want += len(blocks)
	}
	if got != want {
		t.Errorf("reopen recovered %d blocks, memory kept %d", got, want)
	}
}
