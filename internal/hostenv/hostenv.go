// Package hostenv captures the host machine stamp attached to bench
// reports and checkpoint headers: the facts needed to judge whether a
// native-mode wall-clock number means anything, and to flag a
// checkpoint restored on different hardware.
//
// It sits below both internal/bench and internal/core so either can
// stamp artifacts without importing the other.
package hostenv

import (
	"os"
	"runtime"
	"strings"
	"sync"

	"upcbh/internal/octree"
)

// Env is the machine stamp.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	// CPUModel is the "model name" line of /proc/cpuinfo, best-effort:
	// empty on hosts without procfs.
	CPUModel string `json:"cpu_model,omitempty"`
	// ForceKernel is octree.Kernel(): which force kernel ("avx512",
	// "avx2" or "portable") the native force phase ran on this host and
	// build.
	ForceKernel string `json:"force_kernel"`
}

// Capture samples the current process environment. GOMAXPROCS and
// NumCPU are read live (a process may re-pin GOMAXPROCS between
// captures); the /proc/cpuinfo parse — immutable for the
// process lifetime — runs once.
func Capture() Env {
	return Env{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		ForceKernel: octree.Kernel(),
	}
}

// cpuModel extracts the first "model name" entry from /proc/cpuinfo,
// parsed once per process: the file never changes under us, and
// re-reading it on every Report/trajectory/checkpoint stamp was pure
// waste.
var cpuModel = sync.OnceValue(func() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
})
