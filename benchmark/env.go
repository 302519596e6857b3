package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"github.com/fastfhe/fast/internal/ring"
)

// envStamp is written into every result and trace file so that recordings
// from different machines (1-core vs multi-core, AVX2 vs purego) are never
// compared by accident: -compare refuses files whose stamps disagree.
type envStamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernels    string `json:"kernels"` // "avx2" or "purego"
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func stampEnv(root string, seed int64) envStamp {
	kernels := "purego"
	if ring.KernelASMEnabled() {
		kernels = "avx2"
	}
	return envStamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernels:    kernels,
		Commit:     gitCommit(root),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the measured commit. The driver's checkout is not a git
// repository, so "unknown" is an expected answer there.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// findRoot locates the repository root (the directory holding cmd/fastd)
// from the working directory: `go run -C benchmark .` starts the harness in
// benchmark/, `go test` in benchmark/ too, a built binary possibly at the
// root itself.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "fastd")); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("repository root not found from %s (need cmd/fastd beside benchmark/)", wd)
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. Linux
// fixes it at 100 for every architecture Go supports.
const clockTick = 100

// procCPUSeconds returns user+system CPU time consumed so far by pid.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// procPeakRSSMB returns VmHWM (peak resident set) of pid in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == "VmHWM" {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's VmHWM high-water mark, so that a
// second run in one process (-runs, -workload all) reports its own peak. Best
// effort: the write needs Linux 4.0 and fails harmlessly elsewhere.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// selfCPUSeconds returns user+system CPU time of this process, at
// microsecond resolution (finer than /proc's 10 ms ticks).
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirSizeMB sums the regular files under dir, in MiB.
func dirSizeMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
