package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// stolen returns the CPU time the hypervisor has taken from this
// machine's virtual CPUs so far, summed over CPUs, read from the steal
// column of /proc/stat (0 where that is unavailable).
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}
