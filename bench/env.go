package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is what a reader needs to judge whether two result files are
// comparable: same commit, same machine shape, similar background load.
type environment struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	StartedAt  string  `json:"started_at"`
	Quick      bool    `json:"quick,omitempty"`
}

func readEnvironment(seed int64, quick bool) environment {
	return environment{
		Commit:     gitCommit(),
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		LoadAvg1:   loadAvg1(),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
		Quick:      quick,
	}
}

// gitCommit is best effort: the driver's checkouts are not git
// repositories, and a result file from one says so. A tree with
// uncommitted changes reads "<parent>-dirty".
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
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

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // 0 on a malformed file is as good as absent
	return v
}

// cpuTime is the process's user+system CPU so far. Every daemon runs
// in-process, so a difference of two readings is the whole grid's CPU cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in decimal MB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
