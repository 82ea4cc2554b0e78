package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machine is the class of machine a result was measured on. Results from
// different classes are not compared.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func thisMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stamp is the provenance of one result.
func stamp(opt options, rep *report) map[string]any {
	s := map[string]any{
		"machine":  thisMachine(),
		"commit":   commit(),
		"workload": opt.workload.name,
		"seed":     opt.seed,
		"seconds":  opt.seconds,
		"trace":    opt.trace,
		"scale":    opt.scale,
	}
	for k, v := range rep.info {
		s[k] = v
	}
	return s
}

// commit is the checkout's git commit, or "unknown" outside a git work
// tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
