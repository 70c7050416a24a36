package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// fingerprint records where a result file was measured, so two files are
// only compared knowingly across machines, toolchains or revisions.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	GitRev     string `json:"git_revision"`
	TempFS     string `json:"temp_dir_filesystem"`
	Clients    int    `json:"clients"`
	PinnedCPU  int    `json:"pinned_cpu"` // -1: not pinned
	Time       string `json:"time"`
}

func takeFingerprint(tempDir string, pinnedCPU int) fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
		GitRev:     gitRevision(),
		TempFS:     filesystemOf(tempDir),
		Clients:    clientCount,
		PinnedCPU:  pinnedCPU,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func firstLine(path string) string {
	body, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(body), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	body, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(body), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision is "unknown" in an exported checkout, which is not a
// repository; git's own complaint about that is not worth showing.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// filesystemOf names the filesystem type of the mount holding dir (the
// longest mount point that prefixes it in /proc/mounts).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	body, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
