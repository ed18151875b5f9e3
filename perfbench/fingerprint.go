package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the machine and build a result came from.
// Results are only comparable between equal fingerprints; --compare
// refuses mismatches.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	GOARCH     string `json:"goarch"`
	// Kernels is the distance-kernel dispatch the binary was built with:
	// "sse" (amd64 assembly) or "purego" (portable Go).
	Kernels string `json:"kernels"`
	// FS is the filesystem type of the output directory, where
	// ingest-mixed keeps its data directory.
	FS string `json:"fs"`
	// Fsync is ingest-mixed's WAL durability setting.
	Fsync string `json:"fsync"`
}

func takeFingerprint(dir string) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Kernels:    kernelDispatch,
		FS:         fsType(dir),
		Fsync:      ingestFsync,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
