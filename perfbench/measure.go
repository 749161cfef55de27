package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
)

// Latency classes every workload reports; a class a workload never issues
// is omitted from its report rather than reported as zero.
const (
	clsRead = iota
	clsWrite
	clsCommit
	clsMeta
	nClasses
)

var classNames = [nClasses]string{"read", "write", "commit", "meta"}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// window is one slice of a measured phase: the latencies of the ops that
// ended in it, by class, and their count.
type window struct {
	lat         [nClasses][]int64
	ops         int64
	start, last time.Time // phase start (first window only); last op's end
}

// addLatencies reports the median and p99 of each class that has samples,
// in microseconds, under names like read_p50_us (prefixed by prefix). Each
// is the calm value over the windows of that window's percentile; the
// sample count is the total over all windows.
func addLatencies(res *result, prefix string, wins []window) {
	for c := range nClasses {
		var p50, p99 []float64
		n := 0
		for _, w := range wins {
			if len(w.lat[c]) == 0 {
				continue
			}
			sorted := slices.Clone(w.lat[c])
			slices.Sort(sorted)
			p50 = append(p50, float64(percentile(sorted, 0.50))/1e3)
			p99 = append(p99, float64(percentile(sorted, 0.99))/1e3)
			n += len(sorted)
		}
		if n == 0 {
			continue
		}
		name := prefix + classNames[c]
		res.add(metric{Name: name + "_p50_us", Unit: "us", Value: calm(p50, false), Samples: n})
		res.add(metric{Name: name + "_p99_us", Unit: "us", Value: calm(p99, false), Samples: n})
	}
}

// ownBytes is the memory the windows' latency samples hold.
func ownBytes(wins []window) int64 {
	var n int64
	for _, w := range wins {
		for _, l := range w.lat {
			n += int64(cap(l)) * 8
		}
	}
	return n
}

// calm returns the value that bounds the best quarter of the windows: the
// lower quartile of a lower-is-better figure, the upper quartile of a
// higher-is-better one. Other tenants of a shared machine (CPU steal on a
// 2-vCPU VM reached 30%) slow whole stretches of a run; a change to the
// program moves every window, so the best quarter still shows it, while a
// slow stretch has to cover three quarters of the run to move the figure.
func calm(v []float64, higherBetter bool) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if higherBetter {
		slices.Reverse(s)
	}
	return s[len(s)/4]
}

func medianFloat(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// procSample is a process-wide reading taken at a phase boundary.
type procSample struct {
	mallocs   uint64
	allocB    uint64
	gcCPU     float64
	totalCPU  float64
	rusageCPU time.Duration
	wchar     int64
	pool      int64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := slices.Clone(cpuMetrics)
	metrics.Read(cpu)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		mallocs:   ms.Mallocs,
		allocB:    ms.TotalAlloc,
		gcCPU:     cpuFloat(cpu[0]),
		totalCPU:  cpuFloat(cpu[1]),
		rusageCPU: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		wchar:     readWchar(),
		pool:      bufpool.Outstanding(),
	}
}

func cpuFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// readWchar returns the bytes this process has passed to write-type system
// calls (/proc/self/io), or -1 where the file is unavailable.
func readWchar() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// liveHeap forces a collection and returns the live heap in bytes.
// live_heap_mb is its growth from before a set-up to the end of the
// measured phase, less the benchmark's own latency samples: the heap the
// deployment under test holds.
func liveHeap() int64 {
	// The second collection frees what the first left in sync.Pool victim
	// caches: pooled free buffers are not live data.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func heapMB(b int64) float64 { return float64(b) / (1 << 20) }

// addProcMetrics reports the process-wide costs of a measured phase.
func addProcMetrics(res *result, a, b procSample, ops int64, base string) {
	n := float64(ops)
	res.add(metric{Name: "allocs_per_op", Unit: "count", Value: float64(b.mallocs-a.mallocs) / n, Base: base})
	res.add(metric{Name: "alloc_bytes_per_op", Unit: "B", Value: float64(b.allocB-a.allocB) / n, Base: base})
	res.add(metric{Name: "process.cpu_us_per_op", Unit: "us", Value: float64(b.rusageCPU-a.rusageCPU) / 1e3 / n, Base: base})
	gcFrac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	res.add(metric{Name: "runtime.gc_cpu_frac", Unit: "ratio", Value: gcFrac, Base: "Go runtime CPU time"})
	res.add(metric{Name: "bufpool.outstanding_per_op", Unit: "count", Value: float64(b.pool-a.pool) / n, Base: base})
}

// regs is a set of obs registries snapshotted together; deltas sum a
// counter family over every registry.
type regs []*obs.Registry

type regSnap []obs.Snapshot

func (r regs) snapshot() regSnap {
	out := make(regSnap, len(r))
	for i, reg := range r {
		out[i] = reg.Snapshot()
	}
	return out
}

func (s regSnap) sum(fam string) int64 {
	var t int64
	for _, snap := range s {
		t += snap.SumCounters(fam)
	}
	return t
}

// histSum totals the sum and count of every histogram series of a family.
func (s regSnap) histSum(fam string) (sum, count int64) {
	for _, snap := range s {
		for name, h := range snap.Histograms {
			if seriesFamily(name) == fam {
				sum += h.Sum
				count += h.Count
			}
		}
	}
	return sum, count
}

// gaugeMax is the largest value of any gauge series of a family.
func (s regSnap) gaugeMax(fam string) int64 {
	var m int64
	for _, snap := range s {
		for name, v := range snap.Gauges {
			if seriesFamily(name) == fam && v > m {
				m = v
			}
		}
	}
	return m
}

func seriesFamily(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// delta returns after.sum(fam) - before.sum(fam).
func delta(before, after regSnap, fam string) int64 { return after.sum(fam) - before.sum(fam) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// wanCalls totals the wide-area RPCs the proxy clients sent between two
// snapshots (gvfs_client_wan_calls_total, published by PublishMetrics), and
// the metadata ones among them.
func wanCalls(a, b regSnap) (total, meta int64) {
	count := func(s regSnap, metaOnly bool) int64 {
		var t int64
		for _, snap := range s {
			for name, v := range snap.Counters {
				if seriesFamily(name) != "gvfs_client_wan_calls_total" {
					continue
				}
				if !metaOnly || isMetaOp(name) {
					t += v
				}
			}
		}
		return t
	}
	return count(b, false) - count(a, false), count(b, true) - count(a, true)
}

func isMetaOp(series string) bool {
	for _, op := range []string{"GETATTR", "LOOKUP", "ACCESS", "READDIR", "READDIRPLUS"} {
		if strings.Contains(series, `op="`+op+`"`) {
			return true
		}
	}
	return false
}

// addRegistryMetrics reports the layer counts the registries hold,
// measured over the phase between the two snapshots. commits is the number
// of COMMITs the kernel clients issued in the phase.
func addRegistryMetrics(res *result, a, b regSnap, ops, commits int64, base string) {
	n := float64(ops)
	d := func(fam string) float64 { return float64(delta(a, b, fam)) }
	wan, wanMeta := wanCalls(a, b)
	res.add(metric{Name: "wan_rpcs_per_op", Unit: "count", Value: float64(wan) / n, Base: base})
	hits, fwd := d("gvfs_client_local_hits_total"), d("gvfs_client_forwards_total")
	res.add(metric{Name: "core.proxyc.local_hit_ratio", Unit: "ratio", Value: ratio(hits, hits+fwd), Base: "proxy-client local hits plus forwards"})
	metaHits := d("gvfs_client_meta_hits_total")
	res.add(metric{Name: "core.proxyc.meta_hit_ratio", Unit: "ratio", Value: ratio(metaHits, metaHits+float64(wanMeta)), Base: "metadata hits plus metadata RPCs sent upstream"})
	res.add(metric{Name: "core.proxyc.coalesced_writes_per_commit", Unit: "count", Value: ratio(d("gvfs_client_coalesced_writes_total"), float64(commits)), Base: "kernel COMMIT"})
	res.add(metric{Name: "core.proxyd.forwards_per_op", Unit: "count", Value: d("gvfs_server_forwards_total") / n, Base: base})
	res.add(metric{Name: "core.getinv_per_op", Unit: "count", Value: d("gvfs_server_getinv_served_total") / n, Base: base})
	res.add(metric{Name: "core.recalls_per_op", Unit: "count", Value: d("gvfs_server_deleg_recalls_total") / n, Base: base})
	res.add(metric{Name: "core.invalidations_per_op", Unit: "count", Value: d("gvfs_client_invalidations_total") / n, Base: base})
	res.add(metric{Name: "core.deleg_grants_per_op", Unit: "count", Value: d("gvfs_server_deleg_grants_total") / n, Base: base})
	res.add(metric{Name: "sunrpc.drc_hits", Unit: "count", Value: d("gvfs_rpc_drc_hits_total")})
	res.add(metric{Name: "sunrpc.retransmits", Unit: "count", Value: d("gvfs_rpc_retransmits_total")})
	res.add(metric{Name: "sunrpc.sheds", Unit: "count", Value: d("gvfs_server_shed_total")})
	res.add(metric{Name: "sunrpc.inflight_peak", Unit: "count", Value: float64(b.gaugeMax("gvfs_server_inflight_peak"))})
	sa, ca := a.histSum("gvfs_server_queue_wait")
	sb, cb := b.histSum("gvfs_server_queue_wait")
	res.add(metric{Name: "sunrpc.queue_wait_mean_us", Unit: "us", Value: ratio(float64(sb-sa), float64(cb-ca)) / 1e3, Samples: int(cb - ca)})
	res.add(metric{Name: "simnet.msgs_per_op", Unit: "count", Value: d("simnet_messages_total") / n, Base: base})
	res.add(metric{Name: "simnet.bytes_per_op", Unit: "B", Value: d("simnet_bytes_total") / n, Base: base})
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil // a vanished entry only shrinks the total
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("magic 0x%x", uint64(st.Type))
}

// envRecord describes where the numbers were measured.
func envRecord(setting string) []string {
	return []string{
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"setting=" + setting,
	}
}
