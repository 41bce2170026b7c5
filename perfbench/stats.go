package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// derive maps (workload seed, stream, index) to a positive campaign seed, so
// every input of a run is a function of --seed alone.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64()>>2) + 1
}

// quantile is the nearest-rank q-quantile (0 < q <= 1); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest of p99, p90 and p50 that has at least
// ten samples beyond it, with its value.
func tailPercentile(xs []float64) (int, float64) {
	for _, p := range []int{99, 90} {
		if float64(len(xs))*(1-float64(p)/100) >= 10 {
			return p, quantile(xs, float64(p)/100)
		}
	}
	return 50, median(xs)
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

func ms(secs []float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = s * 1000
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM); where procfs is
// missing it falls back to the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// host identifies the machine a result was measured on; results compare
// only within one host.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goversion"`
	StoreFS    string `json:"store_fs"`
}

func hostFingerprint(storeDir string) host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StoreFS:    filesystem(storeDir),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// filesystem names the filesystem holding dir by its statfs magic number.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	magic := int64(st.Type)
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", magic)
}

// cpuTicks reads the host's aggregate CPU time and the part of it stolen
// by the hypervisor, in clock ticks; zeros where procfs is missing.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
