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
)

// selfCPU is this process's user+sys CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// procStat returns a process's parent pid and user+sys CPU time from
// /proc/<pid>/stat.
func procStat(pid int) (ppid int, cpu time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name is parenthesized and may contain spaces; the
	// fields after it are space-separated: state ppid ... utime(14)
	// stime(15), counting from pid as field 1.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	ppid, err = strconv.Atoi(f[1])
	if err != nil {
		return 0, 0, err
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: malformed times", pid)
	}
	return ppid, time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// children lists the live child processes of this process.
func children() []int {
	paths, _ := filepath.Glob("/proc/[0-9]*/stat")
	self := os.Getpid()
	var out []int
	for _, p := range paths {
		pid, err := strconv.Atoi(filepath.Base(filepath.Dir(p)))
		if err != nil {
			continue
		}
		if ppid, _, err := procStat(pid); err == nil && ppid == self {
			out = append(out, pid)
		}
	}
	return out
}

// childCPU is the user+sys CPU time of this process's children that
// have ended and been waited for.
func childCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocMB is the Go heap's cumulative allocation in this process, in MB.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

// cpuTicks returns the host-wide stolen CPU time and the time the
// CPUs ran or wanted to run (all but idle and iowait) from the first
// line of /proc/stat, in clock ticks summed over all CPUs.
func cpuTicks() (steal, runnable int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already inside user.
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = n
			runnable += n
		default:
			runnable += n
		}
	}
	return steal, runnable
}
