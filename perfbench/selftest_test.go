package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWorkloadsPassTheirChecks runs every workload briefly, untraced and
// traced, with all correctness checks on, and checks the result line.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon chain over loopback TCP")
	}
	for _, name := range []string{"tcp-warm", "tcp-cold-rw", "wan-shared"} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				var out bytes.Buffer
				o := options{seed: 7, seconds: 1, trace: traced, outDir: t.TempDir()}
				if code := run(&out, name, "../BENCHMARK.json", o); code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want, err := resultNames("../BENCHMARK.json", traced)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("result line has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				// The traced pass must join the kernel hop's spans to the
				// request IDs the proxies forward.
				if traced && name == "tcp-warm" && !strings.Contains(out.String(), "metric core.proxyc.self_read_us") {
					t.Fatalf("traced run derived no proxy-client self time\n%s", out.String())
				}
			})
		}
	}
}

// TestWANProtocolCountsRepeatForASeed: wan-shared takes its virtual-time
// numbers from one simulation per run, which is sound only if a seed fixes
// the protocol's behaviour.
func TestWANProtocolCountsRepeatForASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	o := options{seed: 5, outDir: t.TempDir()}
	a, err := runWANRep(o, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWANRep(o, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.kernRPCs != b.kernRPCs || a.kernCommits != b.kernCommits {
		t.Errorf("kernel RPCs %d/%d, then %d/%d", a.kernRPCs, a.kernCommits, b.kernRPCs, b.kernCommits)
	}
	for _, fam := range []string{
		"simnet_messages_total", "gvfs_client_forwards_total", "gvfs_server_getinv_served_total",
		"gvfs_server_deleg_grants_total", "gvfs_server_deleg_recalls_total", "gvfs_client_invalidations_total",
	} {
		if x, y := delta(a.r0, a.r1, fam), delta(b.r0, b.r1, fam); x != y {
			t.Errorf("%s: %d, then %d", fam, x, y)
		}
	}
	t.Logf("virtual makespans %v and %v", a.virt, b.virt)
}

func TestCheckBlockRejectsOtherVersions(t *testing.T) {
	b := make([]byte, blockSize)
	fillBlock(b, 1, 3, 4, 5)
	if !checkBlock(b, 1, 3, 4, 5) || blockGen(b) != 4 {
		t.Fatal("a block does not match its own pattern")
	}
	for _, c := range []struct {
		seed      uint64
		file, gen uint32
		block     int
	}{{2, 3, 4, 5}, {1, 9, 4, 5}, {1, 3, 5, 5}, {1, 3, 4, 6}} {
		if checkBlock(b, c.seed, c.file, c.gen, c.block) {
			t.Errorf("block of (1,3,4,5) accepted as %+v", c)
		}
	}
	b[blockSize-1] ^= 1
	if checkBlock(b, 1, 3, 4, 5) {
		t.Error("a flipped byte went unnoticed")
	}
}
