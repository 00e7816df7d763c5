package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSec is USER_HZ, the unit of the CPU times in /proc. It is
// 100 on every Linux architecture Go supports.
const clockTicksPerSec = 100

// procCPUTicks returns a process's user+sys CPU time in clock ticks, from
// fields 14 and 15 of /proc/<pid>/stat.
func procCPUTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from one /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may hold spaces or ')', so
// fields are counted from the last ')'.
func parseStatCPU(line string) (uint64, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", line)
	}
	// After ")" come field 3 (state) onwards; utime is field 14.
	f := strings.Fields(line[end+1:])
	const utime, stime = 14 - 3, 15 - 3
	if len(f) <= stime {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want > %d", len(f), stime)
	}
	u, err := strconv.ParseUint(f[utime], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	s, err := strconv.ParseUint(f[stime], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return u + s, nil
}

// procPeakRSSKB returns a process's peak resident set size (VmHWM) in kB.
func procPeakRSSKB(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusField(string(b), "VmHWM")
}

// parseStatusField reads one "Name:   <n> kB" line of /proc/<pid>/status.
func parseStatusField(status, name string) (uint64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || key != name {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			break
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", name)
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks.
type hostCPU struct {
	total, steal uint64
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(b))
}

// parseHostCPU sums the first eight time fields of the "cpu" line (user,
// nice, system, idle, iowait, irq, softirq, steal). Guest time is already
// counted in user and nice, so it is left out.
func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: bad cpu line %q", line)
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat: cpu field %d: %w", i, err)
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h, nil
}

// sub returns the ticks spent between an earlier reading o and h.
func (h hostCPU) sub(o hostCPU) hostCPU {
	return hostCPU{total: h.total - o.total, steal: h.steal - o.steal}
}

// stealFrac is the share of the ticks that the hypervisor stole.
func (h hostCPU) stealFrac() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.steal) / float64(h.total)
}
