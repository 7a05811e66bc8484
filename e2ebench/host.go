package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuSample is the host's cumulative CPU time, in clock ticks, at an
// offset from a phase's start: all of it, and the part stolen from this
// machine by the hypervisor.
type cpuSample struct {
	at           time.Duration
	total, steal uint64
}

// readCPU reads the aggregate line of /proc/stat. ok is false where the
// file is missing or has no steal column.
func readCPU() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// sampleCPU records a cpuSample every interval from t0 until stop closes,
// then sends the samples on the returned channel.
func sampleCPU(t0 time.Time, interval time.Duration, stop <-chan struct{}) <-chan []cpuSample {
	out := make(chan []cpuSample, 1)
	go func() {
		var ss []cpuSample
		take := func() {
			if total, steal, ok := readCPU(); ok {
				ss = append(ss, cpuSample{time.Since(t0), total, steal})
			}
		}
		take()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				take()
			case <-stop:
				take()
				out <- ss
				return
			}
		}
	}()
	return out
}

// stealShare is the share of the host's CPU time stolen between offsets
// from and to, from the samples nearest outside them; -1 without samples.
func stealShare(ss []cpuSample, from, to time.Duration) float64 {
	lo, hi := -1, -1
	for i, s := range ss {
		if s.at <= from {
			lo = i
		}
		if s.at >= to && hi < 0 {
			hi = i
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		hi = len(ss) - 1
	}
	if hi <= lo || ss[hi].total == ss[lo].total {
		return -1
	}
	return float64(ss[hi].steal-ss[lo].steal) / float64(ss[hi].total-ss[lo].total)
}
