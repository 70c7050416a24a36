package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one spawned gcbench process. It leads its own process group so
// that stop reaches what it spawned in turn (the shard-serve processes of
// a wire deployment) even when the coordinator dies without reaping them.
type child struct {
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once Wait has returned
	waitErr error
}

// startChild runs bin with args, standard output and error appended to
// logPath (shown when a check fails; removed with the temp dir).
func startChild(bin, logPath string, args ...string) (*child, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor after Start
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	c := &child{cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stopGrace is how long a process gets to drain after SIGTERM before the
// group is killed. gcbench serve drains in well under a second; the
// margin only matters on a stalled machine.
const stopGrace = 15 * time.Second

// stop ends the process and everything in its group: SIGTERM, wait for the
// drain, then SIGKILL whatever is left. It returns once the process has
// been reaped, and is safe to call again or after the process exited.
func (c *child) stop() {
	select {
	case <-c.done:
	default:
		_ = syscall.Kill(-c.pid(), syscall.SIGTERM) // ESRCH if it just exited
		select {
		case <-c.done:
		case <-time.After(stopGrace):
		}
	}
	// Reaches orphaned group members too; ESRCH when none are left.
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	<-c.done
}

// rusage is the reaped process's own accounting (plus the descendants it
// waited for). Valid once done is closed.
func (c *child) rusage() *syscall.Rusage {
	if c.cmd.ProcessState == nil {
		return nil
	}
	ru, _ := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// logTail returns the last n bytes of the child's log for a failure report.
func (c *child) logTail(n int) string {
	body, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	if len(body) > n {
		body = body[len(body)-n:]
	}
	return string(bytes.TrimSpace(body))
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// maxRSSMB converts ru_maxrss (KiB on Linux) to MB.
func maxRSSMB(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// clockTick is USER_HZ: the unit of the utime/stime fields of
// /proc/<pid>/stat, fixed at 100 for Linux user space.
const clockTick = 100

// procStat is what the benchmark reads of one live process from /proc.
type procStat struct {
	pid, ppid int
	cpuS      float64 // user + system seconds so far
}

func readProcStat(pid int) (procStat, error) {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(body))
}

// parseProcStat parses a /proc/<pid>/stat line. The command name (field 2)
// is parenthesised and may itself hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	open, end := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
	if open < 0 || end < open {
		return procStat{}, fmt.Errorf("malformed stat line %q", line)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(line[:open]))
	if err != nil {
		return procStat{}, fmt.Errorf("stat pid: %w", err)
	}
	f := strings.Fields(line[end+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short stat line %q", line)
	}
	ppid, err1 := strconv.Atoi(f[1])
	utime, err2 := strconv.ParseFloat(f[11], 64)
	stime, err3 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, fmt.Errorf("malformed stat fields in %q", line)
	}
	return procStat{pid: pid, ppid: ppid, cpuS: (utime + stime) / clockTick}, nil
}

// processTree returns root and its live descendants.
func processTree(root int) []int {
	parent := map[int]int{}
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, err := readProcStat(pid); err == nil {
			parent[pid] = st.ppid
		}
	}
	tree := []int{root}
	for i := 0; i < len(tree); i++ {
		for pid, pp := range parent {
			if pp == tree[i] {
				tree = append(tree, pid)
			}
		}
	}
	return tree
}

// treeCPU returns the CPU seconds used so far by each live process of pids.
func treeCPU(pids []int) map[int]float64 {
	out := make(map[int]float64, len(pids))
	for _, pid := range pids {
		if st, err := readProcStat(pid); err == nil {
			out[pid] = st.cpuS
		}
	}
	return out
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a live
// process.
func peakRSSMB(pid int) float64 {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" { // "VmHWM:  43012 kB"
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostCPU reads the machine-wide CPU accounting of /proc/stat: all
// jiffies so far and the part of them the hypervisor gave to someone else
// while a vCPU had work (steal).
func hostCPU() (total, steal float64) {
	line := firstLine("/proc/stat")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:] {
		v, _ := strconv.ParseFloat(field, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealShare is the share of the machine's CPU time since (total0,
// steal0) that was stolen: the one sign of a disturbed run the guest can
// see (contention for caches and memory bandwidth leaves no trace here).
func stealShare(total0, steal0 float64) float64 {
	total, steal := hostCPU()
	return ratio(steal-steal0, total-total0)
}
