package gvfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nfsclient"
)

// TestInvalidationBufferOverflow forces a reader's per-client circular
// invalidation buffer to wrap (more pending invalidations than
// InvBufferEntries) and asserts the proxy server falls back to a
// whole-cache force-invalidate on the next poll — and that the reader
// still observes every new value afterwards.
func TestInvalidationBufferOverflow(t *testing.T) {
	const nfiles = 10
	d := newDeployment(t)
	for i := 0; i < nfiles; i++ {
		d.FS.WriteFile(fmt.Sprintf("o/f%d", i), []byte(fmt.Sprintf("old-%d", i)))
	}
	d.Run("overflow", func() {
		cfg := core.Config{
			Model:            core.ModelPolling,
			WriteBack:        true,
			InvBufferEntries: 4, // far fewer than the invalidations below
			PollPeriod:       60 * time.Second,
			PollBackoffMax:   60 * time.Second,
			FlushInterval:    5 * time.Second,
		}
		sess, err := d.NewSession("overflow", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		writer, err := sess.Mount("W", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}
		reader, err := sess.Mount("R", kernelNoac())
		if err != nil {
			t.Error(err)
			return
		}

		// Warm the reader's cache, let the bootstrap poll(s) settle, then
		// take the force-invalidation baseline.
		warm := func() {
			for i := 0; i < nfiles; i++ {
				if _, err := reader.Client.ReadFile(fmt.Sprintf("o/f%d", i)); err != nil {
					t.Errorf("warm read f%d: %v", i, err)
				}
			}
		}
		warm()
		d.Clock.Sleep(cfg.PollPeriod + 5*time.Second)
		warm()
		base := reader.Proxy.Stats().ForceInvalidations

		// Overwrite every file from the writer: each write queues at least
		// one invalidation entry for the reader, wrapping its 4-entry
		// buffer well before the next poll drains it.
		for i := 0; i < nfiles; i++ {
			p := fmt.Sprintf("o/f%d", i)
			if err := writer.Client.WriteFile(p, []byte(fmt.Sprintf("new-%d", i))); err != nil {
				t.Fatalf("overwrite %s: %v", p, err)
			}
		}

		// One flush tick lands the data, the next poll hits the overflowed
		// buffer and must force-invalidate the reader's whole cache.
		d.Clock.Sleep(2*cfg.FlushInterval + cfg.PollPeriod + 10*time.Second)

		if got := reader.Proxy.Stats().ForceInvalidations; got <= base {
			t.Errorf("ForceInvalidations = %d after overflow, want > baseline %d", got, base)
		}
		for i := 0; i < nfiles; i++ {
			p := fmt.Sprintf("o/f%d", i)
			got, err := reader.Client.ReadFile(p)
			if err != nil {
				t.Errorf("post-overflow read %s: %v", p, err)
				continue
			}
			if want := fmt.Sprintf("new-%d", i); string(got) != want {
				t.Errorf("post-overflow %s = %q, want %q", p, got, want)
			}
		}
	})
}

// TestRestartProxyServerRecallsDirty crashes and restarts the proxy server
// while a client holds a write delegation with unflushed dirty blocks. The
// restarted server's recovery round (whole-cache callbacks) must re-grant
// the write delegation, so a cross-client read still observes the dirty
// data via a recall — the in-flight write survives the crash.
func TestRestartProxyServerRecallsDirty(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("d/f", []byte("v0"))
	d.Run("restart", func() {
		cfg := core.Config{
			Model: core.ModelDelegation,
			// Keep the write dirty across the restart: no flush tick fires
			// during the test.
			FlushInterval: 10 * time.Minute,
		}
		sess, err := d.NewSession("restart", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ms := mountClients(t, sess, 2)
		// Only the writer touches the file before the restart: a read from
		// ms[1] here would make the file shared and deny ms[0] the write
		// delegation, turning its write into a synchronous write-through
		// with nothing left dirty to recover.
		if got, err := ms[0].Client.ReadFile("d/f"); err != nil || string(got) != "v0" {
			t.Fatalf("initial read = %q, %v", got, err)
		}

		if err := ms[0].Client.WriteFile("d/f", []byte("v1-dirty")); err != nil {
			t.Fatalf("write: %v", err)
		}

		if err := sess.RestartProxyServer(); err != nil {
			t.Fatalf("restart: %v", err)
		}

		// Read-your-writes must hold for the writer across the restart.
		if got, err := ms[0].Client.ReadFile("d/f"); err != nil || string(got) != "v1-dirty" {
			t.Errorf("writer read after restart = %q, %v, want v1-dirty", got, err)
		}
		// The other client's read reaches the recovered server, which must
		// know (from its recovery round) that ms[0] holds dirty data and
		// recall it before answering.
		if got, err := ms[1].Client.ReadFile("d/f"); err != nil || string(got) != "v1-dirty" {
			t.Errorf("cross-client read after restart = %q, %v, want v1-dirty", got, err)
		}
		if st := ms[0].Proxy.Stats(); st.FlushedBlocks == 0 {
			t.Errorf("writer flushed no blocks; recovery never recalled its dirty data: %+v", st)
		}
	})
}

// TestRemountFromDiskFlushesDirty crashes a client machine (kernel caches
// and proxy process lost, disk cache intact) while it holds dirty
// delegated blocks. The recovered proxy must write the surviving dirty
// blocks back so both the remounted client and other clients read the
// pre-crash data.
func TestRemountFromDiskFlushesDirty(t *testing.T) {
	d := newDeployment(t)
	d.FS.WriteFile("d/g", []byte("v0"))
	d.Run("crash", func() {
		cfg := core.Config{
			Model:         core.ModelDelegation,
			FlushInterval: 10 * time.Minute,
			DiskCacheDir:  t.TempDir(),
		}
		sess, err := d.NewSession("crash", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		ms := mountClients(t, sess, 2)
		if err := ms[0].Client.WriteFile("d/g", []byte("v1-precrash")); err != nil {
			t.Fatalf("write: %v", err)
		}

		nm, err := sess.RemountFromDisk(ms[0], kernelNoac())
		if err != nil {
			t.Fatalf("remount after crash: %v", err)
		}
		if st := nm.Proxy.Stats(); st.FlushedBlocks == 0 {
			t.Errorf("recovered proxy flushed nothing: %+v", st)
		}
		if got, err := nm.Client.ReadFile("d/g"); err != nil || string(got) != "v1-precrash" {
			t.Errorf("remounted client read = %q, %v, want v1-precrash", got, err)
		}
		if got, err := ms[1].Client.ReadFile("d/g"); err != nil || string(got) != "v1-precrash" {
			t.Errorf("other client read = %q, %v, want v1-precrash", got, err)
		}
	})
}

// TestPartialWritebackOnRecall makes a recall hit a client whose dirty
// list exceeds DirtyListThreshold: the client may answer the recall before
// writing everything back (RecallRes.Pending), and the server must protect
// reads of the still-pending blocks until the write-back lands. A
// competing reader that immediately reads the whole file must see every
// byte of the writer's data.
func TestPartialWritebackOnRecall(t *testing.T) {
	const (
		blockSize = 4096
		nblocks   = 10
	)
	d := newDeployment(t)
	d.FS.WriteFile("d/big", nil) // precreate so WriteFile needn't Mkdir
	d.Run("partial", func() {
		cfg := core.Config{
			Model:              core.ModelDelegation,
			BlockSize:          blockSize,
			DirtyListThreshold: 2, // well below the 10 dirty blocks written
			FlushInterval:      10 * time.Minute,
		}
		sess, err := d.NewSession("partial", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		kopts := nfsclient.Options{NoAC: true, BlockSize: blockSize}
		writerM, err := sess.Mount("C1", kopts)
		if err != nil {
			t.Fatalf("mount writer: %v", err)
		}
		readerM, err := sess.Mount("C2", kopts)
		if err != nil {
			t.Fatalf("mount reader: %v", err)
		}

		content := make([]byte, nblocks*blockSize)
		for b := 0; b < nblocks; b++ {
			for i := 0; i < blockSize; i++ {
				content[b*blockSize+i] = byte('a' + b)
			}
		}
		if err := writerM.Client.WriteFile("d/big", content); err != nil {
			t.Fatalf("write: %v", err)
		}

		// Immediate cross-client read: triggers the recall; the writer
		// reports most blocks as pending, and each subsequent read of a
		// pending block must chase the write-back rather than serve stale
		// server-side data.
		got, err := readerM.Client.ReadFile("d/big")
		if err != nil {
			t.Fatalf("cross-client read: %v", err)
		}
		if !bytes.Equal(got, content) {
			i := 0
			for i < len(got) && i < len(content) && got[i] == content[i] {
				i++
			}
			t.Errorf("cross-client read diverges at byte %d (len %d vs %d)", i, len(got), len(content))
		}
		st := writerM.Proxy.Stats()
		if st.Recalls == 0 {
			t.Errorf("writer served no recalls: %+v", st)
		}
		if st.FlushedBlocks < nblocks {
			t.Errorf("writer flushed %d blocks, want >= %d", st.FlushedBlocks, nblocks)
		}
	})
}
