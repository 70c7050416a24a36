package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// Everything the benchmark leaves behind lives in these two directories
// of the checkout (both in .gitignore): binaries, Go caches and per-run
// temp dirs under buildDir, result and span files under outDir.
const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

// goBuild compiles pkg (relative to dir) into buildDir/bin/<name> and
// returns the binary's absolute path and how long the build took. With a
// warm cache and unchanged sources this is the toolchain's up-to-date
// check, a fraction of a second; it runs every time so that a binary can
// never be staler than the tree it claims to measure.
func goBuild(dir, pkg, name string) (string, float64, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", name))
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	begin := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return bin, time.Since(begin).Seconds(), nil
}

// buildGcbench builds the program under test: the shipped CLI, from the
// sources of this checkout.
func buildGcbench() (string, float64, error) {
	return goBuild(".", "./cmd/gcbench", "gcbench")
}

// buildInproc builds the traced in-process pass. It is a binary of its
// own because it alone links the repository's internal packages: a later
// change to one of their signatures can then break the per-layer pass
// (which gates nothing) but never the end-to-end measurement.
func buildInproc() (string, float64, error) {
	return goBuild("bench", "./inproc", "inproc")
}

// newTempDir makes a fresh directory for one workload run inside the
// checkout; the caller removes it.
func newTempDir(workload string) (string, error) {
	base, err := filepath.Abs(filepath.Join(buildDir, "tmp"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, workload+"-")
}
