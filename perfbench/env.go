// The benchmark runs on Linux: its filesystem guard and peak-memory
// reading use Linux statfs, getrusage and procfs.

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment records the machine and filesystem a run measures,
// including a short fsync calibration of the checkpoint filesystem.
func environment(w *workload, seed uint64, work string) (*envRecord, error) {
	fs, err := fsType(work)
	if err != nil {
		return nil, err
	}
	fsync, err := fsyncMicros(filepath.Join(work, "fsync-calibration"))
	if err != nil {
		return nil, err
	}
	return &envRecord{
		Workload:   w.name,
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		FSType:     fs,
		FsyncUs:    fsync,
	}, nil
}

// fsyncMicros is the median time of a 128-byte append plus fsync.
func fsyncMicros(path string) (float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	buf := make([]byte, 128)
	var lat []float64
	for i := 0; i < 32 && err == nil; i++ {
		t := time.Now()
		if _, err = f.Write(buf); err == nil {
			err = f.Sync()
		}
		lat = append(lat, float64(time.Since(t))/1e3)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("fsync calibration: %w", err)
	}
	return quantile(lat, 0.5), nil
}

// tmpfsMagic is the statfs f_type of tmpfs, where fsync costs nothing.
const tmpfsMagic = 0x01021994

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	switch uint64(st.Type) {
	case tmpfsMagic:
		return "tmpfs", nil
	case 0xef53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683e:
		return "btrfs", nil
	case 0x794c7630:
		return "overlayfs", nil
	}
	return fmt.Sprintf("0x%x", uint64(st.Type)), nil
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // kilobytes on Linux
}

// resetPeakRSS returns the memory the garbage collector has freed to the
// kernel and restarts the kernel's count of peak resident memory
// (VmHWM), so that peakRSSBytes covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSBytes is the peak resident set size since the last resetPeakRSS.
func peakRSSBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}
