package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuTimes reads the aggregate "cpu" line of /proc/stat, in clock ticks:
// the busy-or-idle total, the idle time (idle and iowait columns) and the
// steal column. Steal is time the hypervisor ran someone else while this VM
// wanted a CPU; an idle vCPU wants none, so it accrues no steal.
func cpuTimes() (total, idle, steal uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for k, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("/proc/stat: %w", err)
			}
			// guest and guest_nice (columns 9 and 10) are already counted
			// in user and nice.
			if k < 8 {
				total += v
			}
			switch k {
			case 3, 4:
				idle += v
			case 7:
				steal = v
			}
		}
		return total, idle, steal, nil
	}
	return 0, 0, 0, fmt.Errorf("/proc/stat: no cpu line")
}

// processCPU is the user+system CPU time this process has used, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
