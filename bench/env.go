package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// pinToOneCPU confines the process to a single CPU, with two Ps
// time-sharing it. On the two-vCPU boxes this benchmark is judged on,
// two busy threads of one process slow each other by up to 2x
// (measured: a spin loop run twice in parallel takes 1.0-1.9x its solo
// time), and whether the kernel happens to co-schedule the Go threads
// is a per-run accident that moved CPU per tick by +-12% and delivery
// by +-25% between identical runs. On one CPU identical runs agree
// within +-3%. The second P keeps a blocking system call (the WAL's
// fsync) from stalling the runtime until sysmon retakes the only P.
// All figures are therefore per core. It returns the CPU chosen, or an
// error when the affinity could not be set (the run continues
// unpinned).
func pinToOneCPU() (int, error) {
	runtime.GOMAXPROCS(2)
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %v", e)
	}
	// The highest allowed CPU: device interrupts tend to land on CPU 0.
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("empty CPU affinity mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// Threads inherit the mask of the thread that creates them, so
	// pinning every thread that exists now pins every later one too.
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return -1, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
			return -1, fmt.Errorf("sched_setaffinity(%d): %v", tid, e)
		}
	}
	return cpu, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// environment describes the box a result was measured on; two result
// files are comparable only when these agree.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_fs"`
	TempDir    string `json:"temp_dir"`
	// PinnedCPU is the one CPU the run was confined to (-1: not pinned).
	PinnedCPU int `json:"pinned_cpu"`
}

func readEnvironment(tmp string, pinned int) environment {
	return environment{
		PinnedCPU:  pinned,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		TempFS:     fsType(tmp),
		TempDir:    tmp,
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
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

// fsType names the filesystem holding dir: the longest mount point in
// /proc/mounts that prefixes it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
			best, bestLen = fields[2], len(mp)
		}
	}
	return best
}

// scratchDir returns the directory run files (WAL segments) go under:
// .bench_build/tmp next to the nearest BENCHMARK.json at or above the
// working directory, so a run reads and writes only inside its
// checkout; the system temp dir when there is no such file.
func scratchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			tmp := filepath.Join(dir, ".bench_build", "tmp")
			return tmp, os.MkdirAll(tmp, 0o755)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return os.TempDir(), nil
		}
		dir = parent
	}
}
