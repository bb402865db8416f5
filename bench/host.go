package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuAndPeakRSS returns the process's CPU seconds (user + system) and
// peak resident set in MiB.
func cpuAndPeakRSS() (cpuS, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loadavg is the host's one-minute load average, 0 where /proc has none.
func loadavg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
